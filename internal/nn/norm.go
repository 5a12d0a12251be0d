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

	// forward cache; xhat is nil unless the last Forward was a training one
	xhat   *tensor.Tensor
	invStd []float32
	sums   []float64 // reduction scratch: C sums, then C sums of products
	batch  int
	hw     int
}

// NewBatchNorm2D builds a BatchNorm over c channels with γ=1, β=0,
// running mean 0 and running variance 1.
func NewBatchNorm2D(c int) *BatchNorm2D {
	name := fmt.Sprintf("bn%d", c)
	return &BatchNorm2D{
		C: c, Eps: 1e-5, Momentum: 0.1,
		Gamma:   &Param{Name: name + ".gamma", W: tensor.Ones(c), Grad: tensor.New(c)},
		Beta:    &Param{Name: name + ".beta", W: tensor.New(c), Grad: tensor.New(c)},
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

	if len(l.invStd) != l.C { // once per channel count: steady-state steps allocate nothing
		l.invStd = make([]float32, l.C)
		l.sums = make([]float64, 2*l.C)
	}

	if train {
		if m == 0 {
			panic(fmt.Sprintf("nn: BatchNorm2D training batch %v has no elements to take statistics over", x.Shape()))
		}
		l.xhat = l.allocUninit(n, l.C, h, w)
		xh := l.xhat.Data()
		rm, rv := l.RunMean.Data(), l.RunVar.Data()
		sum, sumsq := l.sums[:l.C], l.sums[l.C:]
		bnSums(sum, sumsq, xd, nil, n, l.C, hw)
		for c := 0; c < l.C; c++ {
			mean := sum[c] / float64(m)
			variance := sumsq[c]/float64(m) - mean*mean
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

	// Eval mode: use running statistics. There is no batch to differentiate.
	l.xhat = nil
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

// Backward implements Layer using the standard batch-norm gradient. It
// differentiates the batch of the last training Forward and panics when there
// is none.
func (l *BatchNorm2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if l.xhat == nil {
		panic("nn: BatchNorm2D.Backward needs a training Forward before it (none yet, or the last one ran in eval mode)")
	}
	n, hw := l.batch, l.hw
	m := float32(n * hw)
	dx := l.allocUninit(grad.Shape()...)
	gd := grad.Data()
	xh := l.xhat.Data()
	dxd := dx.Data()
	gammaD := l.Gamma.W.Data()
	dgamma, dbeta := l.Gamma.Grad.Data(), l.Beta.Grad.Data()

	sumDy, sumDyXhat := l.sums[:l.C], l.sums[l.C:]
	bnSums(sumDy, sumDyXhat, gd, xh, n, l.C, hw)
	for c := 0; c < l.C; c++ {
		dgamma[c] += float32(sumDyXhat[c])
		dbeta[c] += float32(sumDy[c])
		g := gammaD[c]
		inv := l.invStd[c]
		sDy, sDyXh := float32(sumDy[c]), float32(sumDyXhat[c])
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

// bnSums folds the two float64 reductions of a batch-norm pass over an
// [n, chans, hw] batch: per channel c, sum[c] = Σ a and dot[c] = Σ a·b — or
// Σ a² when b is nil, the forward's (Σx, Σx²); the backward's are (Σdy,
// Σdy·x̂). A channel's two sums each fold its elements one at a time, samples
// then positions ascending, so the order of every sum is the single-channel
// loop's. The channels are independent targets: a sweep folds bnTile of them
// side by side (2·bnTile chains), the vector kernel two such tiles with the
// channels in its lanes, and the last chans mod bnTile go one by one.
func bnSums(sum, dot []float64, a, b []float32, n, chans, hw int) {
	stride := chans * hw
	c := 0
	if vecLive {
		for ; c+2*bnTile <= chans; c += 2 * bnTile {
			if b == nil {
				bnSumSqVec(sum[c:], dot[c:], a[c*hw:], stride, n, hw)
			} else {
				bnSumDotVec(sum[c:], dot[c:], a[c*hw:], b[c*hw:], stride, n, hw)
			}
		}
	}
	for ; c+bnTile <= chans; c += bnTile {
		if b == nil {
			bnSumSqTile(sum[c:c+bnTile], dot[c:c+bnTile], a[c*hw:], stride, n, hw)
		} else {
			bnSumDotTile(sum[c:c+bnTile], dot[c:c+bnTile], a[c*hw:], b[c*hw:], stride, n, hw)
		}
	}
	for ; c < chans; c++ {
		var s, d float64
		for i := 0; i < n; i++ {
			pa := a[i*stride+c*hw:][:hw]
			pb := pa
			if b != nil {
				pb = b[i*stride+c*hw:][:hw]
			}
			for j, v := range pa {
				s += float64(v)
				d += float64(v) * float64(pb[j])
			}
		}
		sum[c], dot[c] = s, d
	}
}

// bnTile is how many channels one Go reduction sweep folds side by side.
const bnTile = 4

// bnSumSqTile is the forward sweep over bnTile neighbouring channels:
// sum[k] = Σ x, sq[k] = Σ x·x for the planes of hw elements that start k·hw
// into x, over n samples stride apart.
func bnSumSqTile(sum, sq []float64, x []float32, stride, n, hw int) {
	var s0, s1, s2, s3, q0, q1, q2, q3 float64
	for i := 0; i < n; i++ {
		p := x[i*stride:][:bnTile*hw]
		x0 := p[:hw]
		// Re-sliced to len(x0) so the compiler drops the inner bounds checks.
		x1, x2, x3 := p[hw:][:len(x0)], p[2*hw:][:len(x0)], p[3*hw:][:len(x0)]
		for j, v := range x0 {
			v0, v1, v2, v3 := float64(v), float64(x1[j]), float64(x2[j]), float64(x3[j])
			s0 += v0
			q0 += v0 * v0
			s1 += v1
			q1 += v1 * v1
			s2 += v2
			q2 += v2 * v2
			s3 += v3
			q3 += v3 * v3
		}
	}
	sum[0], sum[1], sum[2], sum[3] = s0, s1, s2, s3
	sq[0], sq[1], sq[2], sq[3] = q0, q1, q2, q3
}

// bnSumDotTile is the backward sweep over bnTile neighbouring channels:
// sum[k] = Σ a, dot[k] = Σ a·b over the same layout as bnSumSqTile.
func bnSumDotTile(sum, dot []float64, a, b []float32, stride, n, hw int) {
	var s0, s1, s2, s3, d0, d1, d2, d3 float64
	for i := 0; i < n; i++ {
		pa, pb := a[i*stride:][:bnTile*hw], b[i*stride:][:bnTile*hw]
		a0 := pa[:hw]
		a1, a2, a3 := pa[hw:][:len(a0)], pa[2*hw:][:len(a0)], pa[3*hw:][:len(a0)]
		b0, b1, b2, b3 := pb[:len(a0)], pb[hw:][:len(a0)], pb[2*hw:][:len(a0)], pb[3*hw:][:len(a0)]
		for j, v := range a0 {
			v0, v1, v2, v3 := float64(v), float64(a1[j]), float64(a2[j]), float64(a3[j])
			s0 += v0
			d0 += v0 * float64(b0[j])
			s1 += v1
			d1 += v1 * float64(b1[j])
			s2 += v2
			d2 += v2 * float64(b2[j])
			s3 += v3
			d3 += v3 * float64(b3[j])
		}
	}
	sum[0], sum[1], sum[2], sum[3] = s0, s1, s2, s3
	dot[0], dot[1], dot[2], dot[3] = d0, d1, d2, d3
}

// Params implements Layer.
func (l *BatchNorm2D) Params() []*Param { return []*Param{l.Gamma, l.Beta} }

// States returns the running mean and variance.
func (l *BatchNorm2D) States() []*tensor.Tensor { return []*tensor.Tensor{l.RunMean, l.RunVar} }

// Name implements Layer.
func (l *BatchNorm2D) Name() string { return fmt.Sprintf("BatchNorm2D(%d)", l.C) }
