package nn

import (
	"fmt"
	"math"

	"heteroswitch/internal/tensor"
)

// BatchNorm2D normalizes each channel of an NCHW tensor over the batch and
// spatial dimensions, with a learned affine transform. In training mode it
// uses batch statistics and updates exponential running statistics; in eval
// mode it uses the running statistics.
//
// The running statistics are exposed through States() so federated
// aggregation can average them alongside the trained parameters — BN
// statistics are exactly where system-induced data heterogeneity shows up
// as cross-client drift.
type BatchNorm2D struct {
	arenaScratch
	C        int
	Eps      float64
	Momentum float64
	Gamma    *Param
	Beta     *Param
	RunMean  *tensor.Tensor
	RunVar   *tensor.Tensor

	// forward cache
	xhat   *tensor.Tensor
	invStd []float32
	batch  int
	hw     int
}

// NewBatchNorm2D builds a BatchNorm over c channels with γ=1, β=0,
// running mean 0 and running variance 1.
func NewBatchNorm2D(c int) *BatchNorm2D {
	name := fmt.Sprintf("bn%d", c)
	return &BatchNorm2D{
		C: c, Eps: 1e-5, Momentum: 0.1,
		Gamma:   &Param{Name: name + ".gamma", W: tensor.Ones(c), Grad: tensor.New(c), NoDecay: true},
		Beta:    &Param{Name: name + ".beta", W: tensor.New(c), Grad: tensor.New(c), NoDecay: true},
		RunMean: tensor.New(c),
		RunVar:  tensor.Ones(c),
	}
}

// Forward implements Layer.
func (l *BatchNorm2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.NDim() != 4 || x.Dim(1) != l.C {
		panic(fmt.Sprintf("nn: BatchNorm2D input %v, want [N %d H W]", x.Shape(), l.C))
	}
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	hw := h * w
	m := n * hw
	l.batch, l.hw = n, hw
	out := l.allocUninit(n, l.C, h, w)
	xd, od := x.Data(), out.Data()
	gd, bd := l.Gamma.W.Data(), l.Beta.W.Data()

	if cap(l.invStd) < l.C {
		l.invStd = make([]float32, l.C)
	}
	l.invStd = l.invStd[:l.C]

	if train {
		l.xhat = l.allocUninit(n, l.C, h, w)
		xh := l.xhat.Data()
		rm, rv := l.RunMean.Data(), l.RunVar.Data()
		for c := 0; c < l.C; c++ {
			var sum, sumsq float64
			for i := 0; i < n; i++ {
				base := (i*l.C + c) * hw
				for j := 0; j < hw; j++ {
					v := float64(xd[base+j])
					sum += v
					sumsq += v * v
				}
			}
			mean := sum / float64(m)
			variance := sumsq/float64(m) - mean*mean
			if variance < 0 {
				variance = 0
			}
			inv := 1 / math.Sqrt(variance+l.Eps)
			l.invStd[c] = float32(inv)
			rm[c] = float32((1-l.Momentum)*float64(rm[c]) + l.Momentum*mean)
			rv[c] = float32((1-l.Momentum)*float64(rv[c]) + l.Momentum*variance)
			g, b := gd[c], bd[c]
			mf, invf := float32(mean), float32(inv)
			if vecLive {
				bnNormalizeVec(od[c*hw:], xh[c*hw:], xd[c*hw:], l.C*hw, n, hw, mf, invf, g, b)
				continue
			}
			for i := 0; i < n; i++ {
				base := (i*l.C + c) * hw
				for j := 0; j < hw; j++ {
					xv := (xd[base+j] - mf) * invf
					xh[base+j] = xv
					od[base+j] = g*xv + b
				}
			}
		}
		return out
	}

	// Eval mode: use running statistics.
	rm, rv := l.RunMean.Data(), l.RunVar.Data()
	for c := 0; c < l.C; c++ {
		inv := float32(1 / math.Sqrt(float64(rv[c])+l.Eps))
		g, b, mf := gd[c], bd[c], rm[c]
		for i := 0; i < n; i++ {
			base := (i*l.C + c) * hw
			for j := 0; j < hw; j++ {
				od[base+j] = g*(xd[base+j]-mf)*inv + b
			}
		}
	}
	return out
}

// Backward implements Layer using the standard batch-norm gradient.
func (l *BatchNorm2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	n, hw := l.batch, l.hw
	m := float32(n * hw)
	dx := l.allocUninit(grad.Shape()...)
	gd := grad.Data()
	xh := l.xhat.Data()
	dxd := dx.Data()
	gammaD := l.Gamma.W.Data()
	dgamma, dbeta := l.Gamma.Grad.Data(), l.Beta.Grad.Data()

	for c := 0; c < l.C; c++ {
		var sumDy, sumDyXhat float64
		for i := 0; i < n; i++ {
			base := (i*l.C + c) * hw
			for j := 0; j < hw; j++ {
				dy := float64(gd[base+j])
				sumDy += dy
				sumDyXhat += dy * float64(xh[base+j])
			}
		}
		dgamma[c] += float32(sumDyXhat)
		dbeta[c] += float32(sumDy)
		g := gammaD[c]
		inv := l.invStd[c]
		sDy, sDyXh := float32(sumDy), float32(sumDyXhat)
		if vecLive {
			bnGradXVec(dxd[c*hw:], gd[c*hw:], xh[c*hw:], l.C*hw, n, hw, g, inv/m, m, sDy*g, sDyXh)
			continue
		}
		for i := 0; i < n; i++ {
			base := (i*l.C + c) * hw
			for j := 0; j < hw; j++ {
				dxhat := gd[base+j] * g
				dxd[base+j] = inv / m * (m*dxhat - sDy*g - xh[base+j]*sDyXh*g)
			}
		}
	}
	return dx
}

// Params implements Layer.
func (l *BatchNorm2D) Params() []*Param { return []*Param{l.Gamma, l.Beta} }

// States returns the running mean and variance.
func (l *BatchNorm2D) States() []*tensor.Tensor { return []*tensor.Tensor{l.RunMean, l.RunVar} }

// Name implements Layer.
func (l *BatchNorm2D) Name() string { return fmt.Sprintf("BatchNorm2D(%d)", l.C) }
