package nn

import (
	"testing"

	"heteroswitch/internal/frand"
	"heteroswitch/internal/tensor"
)

// evalGrad is Loss.Eval into a freshly allocated gradient buffer.
func evalGrad(l Loss, pred *tensor.Tensor, target Target) (float64, *tensor.Tensor) {
	grad := tensor.New(pred.Shape()...)
	return l.Eval(grad, pred, target), grad
}

// The value-only loss path (nil grad) must be bit-identical to the gradient
// path's loss accumulation: consumers like fl.EvalLoss rely on it when they
// skip the gradient on pure inference.
func TestEvalValueMatchesEvalInto(t *testing.T) {
	r := frand.New(41)
	logits := tensor.Randn(r, 3, 16, 5)
	classes := []int{4, 0, 2, 1, 3, 4, 0, 1, 2, 3, 0, 4, 1, 2, 3, 0}
	dense := tensor.New(16, 5)
	for i := range dense.Data() {
		if r.Float64() < 0.4 {
			dense.Data()[i] = 1
		}
	}
	preds := tensor.Randn(r, 2, 16, 5)

	cases := []struct {
		name   string
		loss   Loss
		pred   *tensor.Tensor
		target Target
	}{
		{"softmax-ce", SoftmaxCrossEntropy{}, logits, ClassTarget(classes)},
		{"bce-logits", BCEWithLogits{}, logits, DenseTarget(dense)},
		{"mse", MSE{}, preds, DenseTarget(dense)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, _ := evalGrad(tc.loss, tc.pred, tc.target)
			if got := tc.loss.Eval(nil, tc.pred, tc.target); got != want {
				t.Fatalf("value-only loss = %v, gradient-path loss = %v (must be bit-identical)", got, want)
			}
		})
	}
}

// The value-only path must allocate nothing: it is the per-batch hot path of every
// eval sweep.
func TestEvalValueZeroAlloc(t *testing.T) {
	r := frand.New(43)
	logits := tensor.Randn(r, 3, 8, 4)
	target := ClassTarget([]int{0, 1, 2, 3, 0, 1, 2, 3})
	var sink float64
	allocs := testing.AllocsPerRun(50, func() {
		sink += SoftmaxCrossEntropy{}.Eval(nil, logits, target)
	})
	if allocs != 0 {
		t.Fatalf("value-only Eval allocates %v per call, want 0", allocs)
	}
	_ = sink
}
