package nn

import (
	"fmt"
	"math"

	"heteroswitch/internal/tensor"
)

// Loss computes a scalar training loss and, on request, the gradient of that
// loss with respect to the network's output (logits/predictions).
type Loss interface {
	Name() string
	// Eval returns the mean loss over the batch. A non-nil grad, which must
	// have pred's shape (a training loop passes one recycled per-batch
	// buffer), is overwritten with dL/d(pred); a nil grad is the value-only
	// path for inference consumers. Both paths run one loop, so the value is
	// the same bits either way.
	Eval(grad, pred *tensor.Tensor, target Target) float64
}

// Target carries either class indices (single-label), a dense matrix
// (multi-label / regression), whichever the loss expects.
type Target struct {
	Classes []int          // single-label classification
	Dense   *tensor.Tensor // multi-label {0,1} matrix or regression targets
}

// ClassTarget wraps class indices as a Target.
func ClassTarget(classes []int) Target { return Target{Classes: classes} }

// DenseTarget wraps a dense tensor as a Target.
func DenseTarget(t *tensor.Tensor) Target { return Target{Dense: t} }

// SoftmaxCrossEntropy is the standard multi-class classification loss. Eval
// expects logits [N, C] and Target.Classes of length N.
type SoftmaxCrossEntropy struct{}

// Eval implements Loss. The gradient is (softmax - onehot)/N.
func (SoftmaxCrossEntropy) Eval(grad, logits *tensor.Tensor, target Target) float64 {
	if logits.NDim() != 2 {
		panic(fmt.Sprintf("nn: SoftmaxCrossEntropy logits %v", logits.Shape()))
	}
	n, c := logits.Dim(0), logits.Dim(1)
	if len(target.Classes) != n {
		panic(fmt.Sprintf("nn: %d labels for %d logits rows", len(target.Classes), n))
	}
	var gd []float32
	if grad != nil {
		if !grad.SameShape(logits) {
			panic(fmt.Sprintf("nn: SoftmaxCrossEntropy grad buffer %v, want %v", grad.Shape(), logits.Shape()))
		}
		gd = grad.Data()
	}
	ld := logits.Data()
	var loss float64
	invN := 1 / float64(n)
	for i := 0; i < n; i++ {
		row := ld[i*c : (i+1)*c]
		maxv := row[0]
		for _, v := range row[1:] {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for _, v := range row {
			sum += math.Exp(float64(v - maxv))
		}
		logSum := math.Log(sum)
		y := target.Classes[i]
		if y < 0 || y >= c {
			panic(fmt.Sprintf("nn: label %d out of range [0,%d)", y, c))
		}
		loss += -(float64(row[y]-maxv) - logSum) * invN
		if gd == nil {
			continue
		}
		gRow := gd[i*c : (i+1)*c]
		for j, v := range row {
			p := math.Exp(float64(v-maxv)) / sum
			gRow[j] = float32(p * invN)
		}
		gRow[y] -= float32(invN)
	}
	return loss
}

// Name implements Loss.
func (SoftmaxCrossEntropy) Name() string { return "SoftmaxCrossEntropy" }

// BCEWithLogits is the multi-label classification loss: an independent
// sigmoid cross-entropy per class, averaged over batch and classes. Eval
// expects logits [N, C] and Target.Dense [N, C] with entries in {0,1}.
type BCEWithLogits struct{}

// Eval implements Loss.
func (BCEWithLogits) Eval(grad, logits *tensor.Tensor, target Target) float64 {
	if target.Dense == nil || !logits.SameShape(target.Dense) {
		panic("nn: BCEWithLogits needs dense targets matching logits shape")
	}
	var gd []float32
	if grad != nil {
		if !grad.SameShape(logits) {
			panic(fmt.Sprintf("nn: BCEWithLogits grad buffer %v, want %v", grad.Shape(), logits.Shape()))
		}
		gd = grad.Data()
	}
	ld, td := logits.Data(), target.Dense.Data()
	var loss float64
	invM := 1 / float64(len(ld))
	for i, z := range ld {
		t := float64(td[i])
		zf := float64(z)
		// numerically stable: log(1+e^-|z|) + max(z,0) - z*t
		loss += (math.Max(zf, 0) - zf*t + math.Log1p(math.Exp(-math.Abs(zf)))) * invM
		if gd != nil {
			gd[i] = float32((sigmoid64(zf) - t) * invM)
		}
	}
	return loss
}

// Name implements Loss.
func (BCEWithLogits) Name() string { return "BCEWithLogits" }

// MSE is the mean squared error regression loss. Eval expects predictions
// [N, D] and Target.Dense [N, D].
type MSE struct{}

// Eval implements Loss.
func (MSE) Eval(grad, pred *tensor.Tensor, target Target) float64 {
	if target.Dense == nil || pred.Size() != target.Dense.Size() {
		panic("nn: MSE needs dense targets matching prediction size")
	}
	var gd []float32
	if grad != nil {
		if grad.Size() != pred.Size() {
			panic("nn: MSE grad buffer size mismatch")
		}
		gd = grad.Data()
	}
	pd, td := pred.Data(), target.Dense.Data()
	var loss float64
	invM := 1 / float64(len(pd))
	for i := range pd {
		d := float64(pd[i]) - float64(td[i])
		loss += d * d * invM
		if gd != nil {
			gd[i] = float32(2 * d * invM)
		}
	}
	return loss
}

// Name implements Loss.
func (MSE) Name() string { return "MSE" }
