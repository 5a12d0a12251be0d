package nn

import (
	"fmt"
	"math"

	"heteroswitch/internal/frand"
	"heteroswitch/internal/tensor"
)

// Dense is a fully connected layer: y = x @ W + b for x of shape [N, in].
type Dense struct {
	arenaScratch
	intraOp
	In, Out int
	W, B    *Param
	x       *tensor.Tensor // cached input
}

// NewDense builds a dense layer with He-normal initialization.
func NewDense(r *frand.RNG, in, out int) *Dense {
	std := math.Sqrt(2.0 / float64(in))
	w := tensor.Randn(r, std, in, out)
	return &Dense{
		In: in, Out: out,
		W: &Param{Name: fmt.Sprintf("dense%dx%d.W", in, out), W: w, Grad: tensor.New(in, out)},
		B: &Param{Name: fmt.Sprintf("dense%dx%d.b", in, out), W: tensor.New(out), Grad: tensor.New(out)},
	}
}

// Forward computes x @ W + b.
func (d *Dense) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.NDim() != 2 || x.Dim(1) != d.In {
		panic(fmt.Sprintf("nn: Dense input shape %v, want [N %d]", x.Shape(), d.In))
	}
	d.x = x
	y := d.allocUninit(x.Dim(0), d.Out)
	tensor.MatMulIntoP(d.budget(), y, x, d.W.W)
	n, out := y.Dim(0), d.Out
	yd, bd := y.Data(), d.B.W.Data()
	for i := 0; i < n; i++ {
		row := yd[i*out : (i+1)*out]
		for j := range row {
			row[j] += bd[j]
		}
	}
	return y
}

// Backward accumulates dW = xᵀ @ dy, db = Σ dy, and returns dx = dy @ Wᵀ.
func (d *Dense) Backward(grad *tensor.Tensor) *tensor.Tensor {
	tensor.MatMulTransAAccIntoP(d.budget(), d.W.Grad, d.x, grad) // Grad += xᵀ @ dy, no temporary
	n, out := grad.Dim(0), d.Out
	gd, bg := grad.Data(), d.B.Grad.Data()
	for i := 0; i < n; i++ {
		row := gd[i*out : (i+1)*out]
		for j := range row {
			bg[j] += row[j]
		}
	}
	dx := d.allocUninit(n, d.In)
	tensor.MatMulTransBIntoP(d.budget(), dx, grad, d.W.W)
	return dx
}

// Params returns W and b.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// States returns nil (Dense has no persistent state).
func (d *Dense) States() []*tensor.Tensor { return nil }

// Name implements Layer.
func (d *Dense) Name() string { return fmt.Sprintf("Dense(%d→%d)", d.In, d.Out) }
