package nn

import (
	"heteroswitch/internal/tensor"
)

// SGD is stochastic gradient descent with optional momentum. Federated
// clients train with plain SGD (the paper's setting); the centralized SWAD
// harness is the one momentum user.
type SGD struct {
	LR       float64
	Momentum float64
	velocity map[*Param]*tensor.Tensor
}

// NewSGD builds an SGD optimizer.
func NewSGD(lr, momentum float64) *SGD { return &SGD{LR: lr, Momentum: momentum} }

// Step applies one update to every parameter using its accumulated gradient,
// then zeroes the gradients.
func (o *SGD) Step(params []*Param) {
	lr := float32(o.LR)
	mom := float32(o.Momentum)
	for _, p := range params {
		g := p.Grad
		if mom != 0 {
			v, ok := o.velocity[p]
			if !ok {
				if o.velocity == nil {
					o.velocity = make(map[*Param]*tensor.Tensor)
				}
				v = tensor.New(p.W.Shape()...)
				o.velocity[p] = v
			}
			v.Scale(mom)
			v.Axpy(1, g)
			p.W.Axpy(-lr, v)
		} else {
			p.W.Axpy(-lr, g)
		}
		g.Zero()
	}
}
