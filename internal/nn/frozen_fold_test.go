package nn

import (
	"testing"

	"heteroswitch/internal/frand"
	"heteroswitch/internal/tensor"
)

// TestEvalForwardLeavesNoBackwardCache holds the layers the frozen program
// runs as their own eval forward to Frozen's promise: an eval pass writes no
// buffer a backward pass would read, and computes what a training pass does.
func TestEvalForwardLeavesNoBackwardCache(t *testing.T) {
	x := tensor.Randn(frand.New(5), 1, 2, 3, 6, 6)
	pool, relu := NewMaxPool2D(2, 2), NewReLU()
	yPool := pool.Forward(x, false).Clone()
	yReLU := relu.Forward(x, false).Clone()
	if pool.argmax != nil || pool.inShape != nil {
		t.Errorf("MaxPool2D eval forward cached argmax %d / shape %v", len(pool.argmax), pool.inShape)
	}
	if relu.mask != nil {
		t.Errorf("ReLU eval forward cached a %d-element mask", len(relu.mask))
	}
	if !yPool.AllClose(pool.Forward(x, true), 0) || !yReLU.AllClose(relu.Forward(x, true), 0) {
		t.Error("eval and training forwards disagree")
	}
	if len(pool.argmax) != yPool.Size() || len(relu.mask) != x.Size() {
		t.Errorf("training forward cached %d argmax / %d mask entries, want %d / %d",
			len(pool.argmax), len(relu.mask), yPool.Size(), x.Size())
	}
}
