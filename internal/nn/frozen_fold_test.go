package nn

import (
	"testing"

	"heteroswitch/internal/frand"
	"heteroswitch/internal/tensor"
	"heteroswitch/internal/vec"
)

// White-box coverage of the Residual projection fold: exactly the
// 1×1/stride-1/unpadded/ungrouped, activation-free projection shape may
// fold onto the skip path, everything else must keep the materialized
// branch.

// compileResidual freezes a lone Residual and returns its compiled op.
func compileResidual(body, proj Layer) *frozenResidual {
	ops := compileLayer(NewResidual(body, proj))
	if len(ops) != 1 {
		panic("residual compiled to more than one op")
	}
	return ops[0].(*frozenResidual)
}

func TestResidualProjFoldDetection(t *testing.T) {
	r := frand.New(11)
	body := func() Layer {
		return NewNetwork(NewConv2D(r, 4, 8, 3, 1, 1, 1), NewReLU())
	}

	if op := compileResidual(body(), NewNetwork(NewConv2D(r, 4, 8, 1, 1, 0, 1))); op.foldedProj == nil {
		t.Fatal("bare 1x1 conv projection must fold")
	}
	if op := compileResidual(body(), NewNetwork(NewConv2D(r, 4, 8, 1, 1, 0, 1), NewBatchNorm2D(8, vec.ActIdentity))); op.foldedProj == nil {
		t.Fatal("1x1 conv+BN projection must fold (BN is absorbed by the conv fold)")
	}

	for _, tc := range []struct {
		name string
		proj Layer
	}{
		{"identity", nil},
		{"strided", NewNetwork(NewConv2D(r, 4, 8, 1, 2, 0, 1))},
		{"3x3", NewNetwork(NewConv2D(r, 4, 8, 3, 1, 1, 1))},
		{"grouped", NewNetwork(NewConv2D(r, 4, 8, 1, 1, 0, 2))},
		{"activated", NewNetwork(NewConv2D(r, 4, 8, 1, 1, 0, 1), NewReLU())},
		{"two-ops", NewNetwork(NewConv2D(r, 4, 4, 1, 1, 0, 1), NewConv2D(r, 4, 8, 1, 1, 0, 1))},
	} {
		b := body()
		if tc.name == "strided" {
			b = NewNetwork(NewConv2D(r, 4, 8, 3, 2, 1, 1), NewReLU())
		}
		if op := compileResidual(b, tc.proj); op.foldedProj != nil {
			t.Fatalf("%s projection must NOT fold", tc.name)
		}
	}

	// An empty body would make runOps return the input itself; accumulating
	// the projection onto it would clobber x, so the fold must decline.
	if op := compileResidual(NewIdentity(), NewNetwork(NewConv2D(r, 4, 4, 1, 1, 0, 1))); op.foldedProj != nil {
		t.Fatal("empty-body residual must NOT fold its projection")
	}
}

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
