package nn

import (
	"math"

	"heteroswitch/internal/tensor"
	"heteroswitch/internal/vec"
)

// sigmoid64 is the logistic function BCEWithLogits' gradient uses.
func sigmoid64(z float64) float64 { return 1 / (1 + math.Exp(-z)) }

// ReLU is the rectified linear activation.
type ReLU struct {
	arenaScratch
	mask []bool
}

// NewReLU returns a ReLU layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward zeroes negative elements. Only a training pass records the
// positive mask Backward reads.
func (l *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	y := l.allocUninit(x.Shape()...)
	xd := x.Data()
	applyAct(y.Data(), xd, vec.ActReLU)
	if train {
		if cap(l.mask) < len(xd) {
			l.mask = make([]bool, len(xd))
		}
		l.mask = l.mask[:len(xd)]
		for i, v := range xd {
			l.mask[i] = v > 0
		}
	}
	return y
}

// Backward passes gradient only where the input was positive.
func (l *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	g := l.allocUninit(grad.Shape()...)
	gd, dd := grad.Data(), g.Data()
	for i, v := range gd {
		if l.mask[i] {
			dd[i] = v
		} else {
			dd[i] = 0
		}
	}
	return g
}

// Params implements Layer.
func (l *ReLU) Params() []*Param { return nil }

// States implements Layer.
func (l *ReLU) States() []*tensor.Tensor { return nil }

// Name implements Layer.
func (l *ReLU) Name() string { return "ReLU" }
