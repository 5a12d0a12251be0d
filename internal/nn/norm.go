package nn

import (
	"fmt"
	"math"

	"heteroswitch/internal/tensor"
	"heteroswitch/internal/vec"
)

// BatchNorm2D normalizes each channel of an NCHW tensor over the batch and
// spatial dimensions, with a learned affine transform, and applies the
// activation that follows it (identity, ReLU or hard-swish). In training mode
// it uses batch statistics and updates exponential running statistics; in
// eval mode it uses the running statistics.
//
// The activation runs inside the layer's own passes: the training forward
// stores only act(γ·x̂ + β), and the backward recomputes x̂ and the
// pre-activation from the input it keeps a reference to, so neither is ever
// stored.
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
	act      vec.Act

	// forward cache; x is nil unless the last Forward was a training one
	x      *tensor.Tensor
	mean   []float32
	invStd []float32
	sums   []float64 // reduction scratch: C sums, then C sums of products
}

// NewBatchNorm2D builds a BatchNorm over c channels with γ=1, β=0,
// running mean 0 and running variance 1, followed by act.
func NewBatchNorm2D(c int, act vec.Act) *BatchNorm2D {
	name := fmt.Sprintf("bn%d", c)
	return &BatchNorm2D{
		C: c, Eps: 1e-5, Momentum: 0.1,
		Gamma:   &Param{Name: name + ".gamma", W: tensor.Ones(c), Grad: tensor.New(c)},
		Beta:    &Param{Name: name + ".beta", W: tensor.New(c), Grad: tensor.New(c)},
		RunMean: tensor.New(c),
		RunVar:  tensor.Ones(c),
		act:     act,
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
	out := l.allocUninit(n, l.C, h, w)
	xd, od := x.Data(), out.Data()
	gd, bd := l.Gamma.W.Data(), l.Beta.W.Data()

	if len(l.invStd) != l.C { // once per channel count: steady-state steps allocate nothing
		l.mean = make([]float32, l.C)
		l.invStd = make([]float32, l.C)
		l.sums = make([]float64, 2*l.C)
	}

	if train {
		if m == 0 {
			panic(fmt.Sprintf("nn: BatchNorm2D training batch %v has no elements to take statistics over", x.Shape()))
		}
		l.x = x
		rm, rv := l.RunMean.Data(), l.RunVar.Data()
		sum, sumsq := l.sums[:l.C], l.sums[l.C:]
		bnSums(sum, sumsq, xd, n, l.C, hw)
		for c := 0; c < l.C; c++ {
			mean := sum[c] / float64(m)
			variance := sumsq[c]/float64(m) - mean*mean
			if variance < 0 {
				variance = 0
			}
			inv := 1 / math.Sqrt(variance+l.Eps)
			rm[c] = float32((1-l.Momentum)*float64(rm[c]) + l.Momentum*mean)
			rv[c] = float32((1-l.Momentum)*float64(rv[c]) + l.Momentum*variance)
			g, b := gd[c], bd[c]
			mf, invf := float32(mean), float32(inv)
			l.mean[c], l.invStd[c] = mf, invf
			if vec.Live {
				vec.BNNormalize(od[c*hw:], xd[c*hw:], l.C*hw, n, hw, mf, invf, g, b, l.act)
				continue
			}
			for i := 0; i < n; i++ {
				base := (i*l.C + c) * hw
				for j := 0; j < hw; j++ {
					xv := (xd[base+j] - mf) * invf
					od[base+j] = g*xv + b
				}
				if l.act != vec.ActIdentity {
					tensor.ApplyAct(od[base:base+hw], l.act)
				}
			}
		}
		return out
	}

	// Eval mode: use running statistics. There is no batch to differentiate.
	l.x = nil
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
	if l.act != vec.ActIdentity {
		tensor.ApplyAct(od, l.act)
	}
	return out
}

// Backward implements Layer using the standard batch-norm gradient behind
// the activation's. It differentiates the batch of the last training Forward
// and panics when there is none. Two passes: the reduction forms
// dz = act′(z)·dy (stored in dx's buffer unless act is the identity, where
// dz is dy) with Σdz and Σdz·x̂, and the input-gradient sweep overwrites dz
// with dx.
func (l *BatchNorm2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if l.x == nil {
		panic("nn: BatchNorm2D.Backward needs a training Forward before it (none yet, or the last one ran in eval mode)")
	}
	n, hw := l.x.Dim(0), l.x.Dim(2)*l.x.Dim(3)
	m := float32(n * hw)
	dx := l.allocUninit(grad.Shape()...)
	xd, dxd := l.x.Data(), dx.Data()
	dz := grad.Data()
	if l.act != vec.ActIdentity {
		dz = dxd
	}
	gammaD := l.Gamma.W.Data()
	dgamma, dbeta := l.Gamma.Grad.Data(), l.Beta.Grad.Data()

	sumDz, sumDzXhat := l.sums[:l.C], l.sums[l.C:]
	l.gradSums(sumDz, sumDzXhat, dz, grad.Data(), xd, n, hw)
	for c := 0; c < l.C; c++ {
		dgamma[c] += float32(sumDzXhat[c])
		dbeta[c] += float32(sumDz[c])
		g := gammaD[c]
		mf, inv := l.mean[c], l.invStd[c]
		scale, sDyG, sDyXh := inv/m, float32(sumDz[c])*g, float32(sumDzXhat[c])
		if vec.Live {
			vec.BNGradX(dxd[c*hw:], dz[c*hw:], xd[c*hw:], l.C*hw, n, hw, mf, inv, g, scale, m, sDyG, sDyXh)
			continue
		}
		for i := 0; i < n; i++ {
			base := (i*l.C + c) * hw
			for j := 0; j < hw; j++ {
				xv := (xd[base+j] - mf) * inv
				dxhat := dz[base+j] * g
				dxd[base+j] = scale * (m*dxhat - sDyG - xv*sDyXh*g)
			}
		}
	}
	return dx
}

// gradSums is the backward's reduction: per channel c, sum[c] = Σ dz and
// dot[c] = Σ dz·x̂ over the [n, C, hw] batch, each folding its elements one at
// a time, samples then positions ascending, after storing
// dz = act′(z)·dy into dz unless act is the identity (then dz is dy). The
// vector kernel vec.BNSumDot takes vec.BNChannels channels a call, forming dz
// in the same pass; the Go loops form the remaining channels' dz first, then
// fold each channel on its own. A bnTile-wide fold would spill its sums and
// x̂ constants out of registers, and the add of a spilled sum takes its
// operands in the other order, which decides which of two NaNs survives.
func (l *BatchNorm2D) gradSums(sum, dot []float64, dz, dy, x []float32, n, hw int) {
	chans, stride := l.C, l.C*hw
	gamma, beta := l.Gamma.W.Data(), l.Beta.W.Data()
	c := 0
	if vec.Live {
		for ; c+vec.BNChannels <= chans; c += vec.BNChannels {
			vec.BNSumDot(sum[c:], dot[c:], dz[c*hw:], dy[c*hw:], x[c*hw:], stride, n, hw,
				l.mean[c:], l.invStd[c:], gamma[c:], beta[c:], l.act)
		}
	}
	if l.act != vec.ActIdentity {
		for i := 0; i < n; i++ {
			for ch := c; ch < chans; ch++ {
				base := i*stride + ch*hw
				mf, inv, g, b := l.mean[ch], l.invStd[ch], gamma[ch], beta[ch]
				pz, py := dz[base:base+hw], dy[base:base+hw]
				for j, v := range x[base : base+hw] {
					xv := (v - mf) * inv
					z := g*xv + b
					switch {
					case l.act == vec.ActHardSwish:
						pz[j] = hardSwishDer(z) * py[j]
					case z > 0:
						pz[j] = py[j]
					default:
						pz[j] = 0
					}
				}
			}
		}
	}
	for ; c < chans; c++ {
		var s, d float64
		mf, inv := l.mean[c], l.invStd[c]
		for i := 0; i < n; i++ {
			px := x[i*stride+c*hw:][:hw]
			for j, v := range dz[i*stride+c*hw:][:len(px)] {
				s += float64(v)
				d += float64((px[j]-mf)*inv) * float64(v)
			}
		}
		sum[c], dot[c] = s, d
	}
}

// hardSwishDer is hard-swish's derivative at z, hardSigmoid(z) plus z/6
// inside (−3, 3). The Go loops multiply dy onto it, so a NaN derivative keeps
// its payload over a NaN dy, as the vector kernel's does.
func hardSwishDer(z float32) float32 {
	der := tensor.HardSigmoid(z)
	if z > -3 && z < 3 {
		der += z / 6
	}
	return der
}

// bnSums folds the forward's two float64 reductions over an [n, chans, hw]
// batch: per channel c, sum[c] = Σ x and sq[c] = Σ x². A channel's two sums
// each fold its elements one at a time, samples then positions ascending, so
// the order of every sum is the single-channel loop's. The channels are
// independent targets: a sweep folds bnTile of them side by side (2·bnTile
// chains), the vector kernel vec.BNChannels with the channels in its lanes,
// and the last chans mod bnTile go one by one.
func bnSums(sum, sq []float64, x []float32, n, chans, hw int) {
	stride := chans * hw
	c := 0
	if vec.Live {
		for ; c+vec.BNChannels <= chans; c += vec.BNChannels {
			vec.BNSumSq(sum[c:], sq[c:], x[c*hw:], stride, n, hw)
		}
	}
	for ; c+bnTile <= chans; c += bnTile {
		bnSumSqTile(sum[c:c+bnTile], sq[c:c+bnTile], x[c*hw:], stride, n, hw)
	}
	for ; c < chans; c++ {
		var s, d float64
		for i := 0; i < n; i++ {
			for _, v := range x[i*stride+c*hw:][:hw] {
				s += float64(v)
				d += float64(v) * float64(v)
			}
		}
		sum[c], sq[c] = s, d
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

// Params implements Layer.
func (l *BatchNorm2D) Params() []*Param { return []*Param{l.Gamma, l.Beta} }

// States returns the running mean and variance.
func (l *BatchNorm2D) States() []*tensor.Tensor { return []*tensor.Tensor{l.RunMean, l.RunVar} }

// Name implements Layer.
func (l *BatchNorm2D) Name() string { return fmt.Sprintf("BatchNorm2D(%d)", l.C) }
