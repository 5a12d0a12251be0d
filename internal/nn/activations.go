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

// Forward zeroes negative elements.
func (l *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	y := l.allocUninit(x.Shape()...)
	xd, yd := x.Data(), y.Data()
	if cap(l.mask) < len(xd) {
		l.mask = make([]bool, len(xd))
	}
	l.mask = l.mask[:len(xd)]
	for i, v := range xd {
		if v > 0 {
			l.mask[i] = true
			yd[i] = v
		} else {
			l.mask[i] = false
			yd[i] = 0
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

// HardSigmoid computes clip((x+3)/6, 0, 1), MobileNetV3's cheap sigmoid.
type HardSigmoid struct {
	arenaScratch
	x *tensor.Tensor
}

// NewHardSigmoid returns a HardSigmoid layer.
func NewHardSigmoid() *HardSigmoid { return &HardSigmoid{} }

// Forward implements Layer.
func (l *HardSigmoid) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	l.x = x
	y := l.allocUninit(x.Shape()...)
	xd, yd := x.Data(), y.Data()
	for i, v := range xd {
		yd[i] = hardSigmoid(v)
	}
	return y
}

func hardSigmoid(v float32) float32 {
	s := (v + 3) / 6
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

// Backward implements Layer: derivative is 1/6 inside (-3, 3), else 0.
func (l *HardSigmoid) Backward(grad *tensor.Tensor) *tensor.Tensor {
	g := l.allocUninit(grad.Shape()...)
	gd, dd, xd := grad.Data(), g.Data(), l.x.Data()
	for i := range gd {
		if xd[i] > -3 && xd[i] < 3 {
			dd[i] = gd[i] / 6
		} else {
			dd[i] = 0
		}
	}
	return g
}

// Params implements Layer.
func (l *HardSigmoid) Params() []*Param { return nil }

// States implements Layer.
func (l *HardSigmoid) States() []*tensor.Tensor { return nil }

// Name implements Layer.
func (l *HardSigmoid) Name() string { return "HardSigmoid" }

// HardSwish computes x * hardSigmoid(x), the MobileNetV3 activation.
type HardSwish struct {
	arenaScratch
	x *tensor.Tensor
}

// NewHardSwish returns a HardSwish layer.
func NewHardSwish() *HardSwish { return &HardSwish{} }

// Forward implements Layer.
func (l *HardSwish) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	l.x = x
	y := l.allocUninit(x.Shape()...)
	xd, yd := x.Data(), y.Data()
	if vec.Live {
		vec.HardSwish(yd, xd)
		return y
	}
	for i, v := range xd {
		yd[i] = v * hardSigmoid(v)
	}
	return y
}

// Backward implements Layer. d/dx [x·hs(x)] = hs(x) + x·hs'(x).
func (l *HardSwish) Backward(grad *tensor.Tensor) *tensor.Tensor {
	g := l.allocUninit(grad.Shape()...)
	gd, dd, xd := grad.Data(), g.Data(), l.x.Data()
	if vec.Live {
		vec.HardSwishGrad(dd, gd, xd[:len(gd)])
		return g
	}
	for i := range gd {
		v := xd[i]
		der := hardSigmoid(v)
		if v > -3 && v < 3 {
			der += v / 6
		}
		dd[i] = gd[i] * der
	}
	return g
}

// Params implements Layer.
func (l *HardSwish) Params() []*Param { return nil }

// States implements Layer.
func (l *HardSwish) States() []*tensor.Tensor { return nil }

// Name implements Layer.
func (l *HardSwish) Name() string { return "HardSwish" }
