package nn

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"heteroswitch/internal/frand"
	"heteroswitch/internal/guardmem"
	"heteroswitch/internal/tensor"
	"heteroswitch/internal/vec"
	"heteroswitch/internal/vectest"
)

// The vector sweeps promise the Go loops' bits, not a tolerance. The tests
// compare math.Float32bits between the two settings of vec.Live, the one
// switch a layer's kernels — tensor's and this package's — sit behind.

// vecSweepSpecials sit on every branch of the hard-sigmoid family and on the
// rounding edges: zeros of both signs, denormals, the ±3 knees and their
// neighbours, values past both clamps, infinities and a NaN.
var vecSweepSpecials = []float32{
	0, float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32, -1e-39,
	3, -3, math.Nextafter32(3, 0), math.Nextafter32(-3, 0), math.Nextafter32(3, 4), math.Nextafter32(-3, -4),
	2.9999, -2.9999, 7.5, -7.5, 1e30, -1e30,
	float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
}

// sweepOperand is n random values with every special planted at a
// seed-dependent position (wrapping for short n).
func sweepOperand(r *frand.RNG, n int, scale float64) []float32 {
	v := tensor.Randn(r, scale, n).Data()
	off := r.Intn(n)
	for i, s := range vecSweepSpecials {
		if i < n {
			v[(off+i*3)%n] = s
		}
	}
	return v
}

var vecSweepLens = []int{1, 2, 7, 8, 9, 15, 16, 17, 31, 33, 64, 100, 257}

// runVecActCase runs every vectorised activation sweep on length n under both
// settings of the switch and requires identical bits: hard-swish forward and
// backward, the standalone frozen activation, the one-row conv epilogue
// (bias, bias + hard-swish), the rows × n training bias add of a pointwise
// Conv2D, the squeeze-excite rescale of rows planes of n and the residual
// sum.
func runVecActCase(t *testing.T, n, rows int, seed uint64) {
	t.Helper()
	r := frand.New(seed)
	x := sweepOperand(r, n, 2)
	dy := sweepOperand(r, n, 1)
	z := sweepOperand(r, rows, 1) // one excite scale per plane
	bias := []float32{0.7, -1.3, float32(math.Copysign(0, -1))}
	conv := NewConv2D(r, 1, rows, 1, 1, 0, 1)
	for i := range conv.B.W.Data() {
		conv.B.W.Data()[i] = bias[i%len(bias)]
	}
	run := func(on bool) [][]float32 {
		vectest.SetLive(t, on)
		l := NewHardSwish()
		xt := tensor.FromSlice(slices.Clone(x), 1, n)
		y := slices.Clone(l.Forward(xt, true).Data())
		dx := slices.Clone(l.Backward(tensor.FromSlice(slices.Clone(dy), 1, n)).Data())
		act := make([]float32, n)
		applyAct(act, x, epHardSwish)
		planes := slices.Clone(conv.Forward(tensor.FromSlice(slices.Clone(x), 1, 1, 1, n), true).Data())
		scaled := make([]float32, rows*n)
		scaleRows(scaled, slices.Repeat(x, rows), z, n)
		sum := make([]float32, n)
		addInto(sum, x, dy)
		res := [][]float32{y, dx, act, planes, scaled, sum}
		for _, hs := range []bool{false, true} {
			for i := range bias {
				row := slices.Clone(x)
				tensor.BiasAct(row, bias[i], hs)
				res = append(res, row)
			}
		}
		return res
	}
	want, got := run(false), run(true)
	for i := range want {
		exactSlice(t, fmt.Sprintf("n=%d rows=%d seed %d sweep %d", n, rows, seed, i), got[i], want[i])
	}
}

// TestVecActivationSweepsMatchGeneric: runVecActCase on lengths around the
// 8-lane edge, specials included.
func TestVecActivationSweepsMatchGeneric(t *testing.T) {
	vectest.Require(t)
	for i, n := range vecSweepLens {
		runVecActCase(t, n, 1+i%4, uint64(811+i))
	}
}

// vecBNPlanes are plane sizes around the lane edge.
var vecBNPlanes = [][2]int{{1, 1}, {1, 7}, {2, 4}, {3, 3}, {5, 5}, {4, 8}, {7, 9}, {16, 16}}

// refBNTrain is BatchNorm2D's training forward and backward as they ran
// before the reductions were tiled: per channel, ONE float64 accumulator pair
// over the batch (samples, then positions, ascending), then the scalar
// normalise and input-gradient loops. It is the oracle both settings of the
// layer must match bit for bit; rm and rv are updated in place, dgamma and
// dbeta accumulated onto.
func refBNTrain(xd, gd []float32, n, ch, hw int, gamma, beta, rm, rv, dgamma, dbeta []float32, eps, momentum float64) (out, xh, dx []float32) {
	m := n * hw
	out, xh, dx = make([]float32, len(xd)), make([]float32, len(xd)), make([]float32, len(xd))
	invStd := make([]float32, ch)
	for c := 0; c < ch; c++ {
		var sum, sumsq float64
		for i := 0; i < n; i++ {
			base := (i*ch + c) * hw
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
		inv := 1 / math.Sqrt(variance+eps)
		invStd[c] = float32(inv)
		rm[c] = float32((1-momentum)*float64(rm[c]) + momentum*mean)
		rv[c] = float32((1-momentum)*float64(rv[c]) + momentum*variance)
		g, b := gamma[c], beta[c]
		mf, invf := float32(mean), float32(inv)
		for i := 0; i < n; i++ {
			base := (i*ch + c) * hw
			for j := 0; j < hw; j++ {
				xv := (xd[base+j] - mf) * invf
				xh[base+j] = xv
				out[base+j] = g*xv + b
			}
		}
	}
	mf := float32(m)
	for c := 0; c < ch; c++ {
		var sumDy, sumDyXhat float64
		for i := 0; i < n; i++ {
			base := (i*ch + c) * hw
			for j := 0; j < hw; j++ {
				dy := float64(gd[base+j])
				sumDy += dy
				sumDyXhat += dy * float64(xh[base+j])
			}
		}
		dgamma[c] += float32(sumDyXhat)
		dbeta[c] += float32(sumDy)
		g := gamma[c]
		inv := invStd[c]
		sDy, sDyXh := float32(sumDy), float32(sumDyXhat)
		for i := 0; i < n; i++ {
			base := (i*ch + c) * hw
			for j := 0; j < hw; j++ {
				dxhat := gd[base+j] * g
				dx[base+j] = inv / mf * (mf*dxhat - sDy*g - xh[base+j]*sDyXh*g)
			}
		}
	}
	return out, xh, dx
}

// runVecBNCase runs the training forward (xhat, out, running statistics) and
// backward (dx, dγ, dβ) of BatchNorm2D on an [n, c, h, w] batch under both
// settings of the switch and requires refBNTrain's bits of both. The inputs
// carry ±0 and denormals, one γ in four is zero, and the gradients accumulate
// onto junk. The reductions run four channels a sweep in Go and eight a sweep
// in the vector kernel, each channel still folded one element at a time; the
// elementwise passes walk n planes of h·w elements c·h·w apart.
func runVecBNCase(t *testing.T, n, c, h, w int, seed uint64) {
	t.Helper()
	r := frand.New(seed)
	size := n * c * h * w
	x := tensor.Randn(r, 1.5, size).Data()
	dy := tensor.Randn(r, 1, size).Data()
	x[0], dy[size-1] = float32(math.Copysign(0, -1)), 1e-39
	x[size/2], dy[size/3] = -1e-41, 0
	x[size-1], dy[0] = 0, float32(math.Copysign(0, -1))
	gamma, beta := make([]float32, c), make([]float32, c)
	junkG, junkB := tensor.Randn(r, 1, c).Data(), tensor.Randn(r, 1, c).Data()
	for i := range gamma {
		gamma[i] = []float32{1.25, -0.5, 0, 3}[i%4] + float32(i/4)*0.125
		beta[i] = []float32{0.1, -2, 3, 1e-39}[i%4]
	}
	gamma[2%c] = 0
	what := []string{"out", "xhat", "dx", "runMean", "runVar", "dGamma", "dBeta"}
	wantRM, wantRV := make([]float32, c), slices.Repeat([]float32{1}, c)
	wantDG, wantDB := slices.Clone(junkG), slices.Clone(junkB)
	l := NewBatchNorm2D(c)
	wantOut, wantXh, wantDx := refBNTrain(x, dy, n, c, h*w, gamma, beta, wantRM, wantRV, wantDG, wantDB, l.Eps, l.Momentum)
	want := [][]float32{wantOut, wantXh, wantDx, wantRM, wantRV, wantDG, wantDB}
	for _, on := range []bool{false, true} {
		vectest.SetLive(t, on)
		l := NewBatchNorm2D(c)
		l.Gamma.W.CopyFrom(tensor.FromSlice(gamma, c))
		l.Beta.W.CopyFrom(tensor.FromSlice(beta, c))
		l.Gamma.Grad.CopyFrom(tensor.FromSlice(junkG, c))
		l.Beta.Grad.CopyFrom(tensor.FromSlice(junkB, c))
		out := l.Forward(tensor.FromSlice(slices.Clone(x), n, c, h, w), true)
		dx := l.Backward(tensor.FromSlice(slices.Clone(dy), n, c, h, w))
		got := [][]float32{
			out.Data(), l.xhat.Data(), dx.Data(), l.RunMean.Data(), l.RunVar.Data(),
			l.Gamma.Grad.Data(), l.Beta.Grad.Data(),
		}
		for i := range want {
			exactSlice(t, fmt.Sprintf("bn n=%d c=%d %dx%d seed %d vec=%v %s", n, c, h, w, seed, on, what[i]), got[i], want[i])
		}
	}
}

// TestVecBatchNormMatchesGeneric: runVecBNCase on the plane table at batch 1
// and 3.
func TestVecBatchNormMatchesGeneric(t *testing.T) {
	for i, hw := range vecBNPlanes {
		for _, n := range []int{1, 3} {
			runVecBNCase(t, n, 3, hw[0], hw[1], uint64(812+i))
		}
	}
}

// TestBatchNormReductionTiles sweeps the channel counts around the four-
// channel Go tile and the eight-channel vector tile (a tile plus every
// remainder, and TinyMobileNetV3's 16 and 24) against plane sizes around the
// four-j block of the transposing read, at batch 1, 3 and 10.
func TestBatchNormReductionTiles(t *testing.T) {
	seed := uint64(900)
	for _, c := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 24} {
		for _, hw := range []int{1, 3, 4, 5, 7, 64, 256} {
			for _, n := range []int{1, 3, 10} {
				if testing.Short() && hw == 256 && n == 10 && c < 16 {
					continue
				}
				seed++
				runVecBNCase(t, n, c, 1, hw, seed)
			}
		}
	}
}

// TestVecBNSumsStayInsideSlices: the transposing reduction reads four
// consecutive j of eight channels at a time; on planes of every length mod 4
// whose batch ends at an inaccessible page, it must read the last element and
// nothing after it.
func TestVecBNSumsStayInsideSlices(t *testing.T) {
	vectest.Require(t)
	r := frand.New(83)
	for _, hw := range []int{1, 2, 3, 4, 5, 6, 7, 9, 64} {
		const n, ch = 3, 8
		a, b := guardmem.Float32s(t, n*ch*hw), guardmem.Float32s(t, n*ch*hw)
		copy(a, tensor.Randn(r, 1, len(a)).Data())
		copy(b, tensor.Randn(r, 1, len(b)).Data())
		for _, pass := range [][]float32{nil, b} {
			var sums [2][2 * ch]float64
			for i, on := range []bool{false, true} {
				vectest.SetLive(t, on)
				bnSums(sums[i][:ch], sums[i][ch:], a, pass, n, ch, hw)
			}
			for i := range sums[0] {
				if math.Float64bits(sums[1][i]) != math.Float64bits(sums[0][i]) {
					t.Fatalf("hw=%d pair=%v: sum %d = %v, want %v", hw, pass != nil, i, sums[1][i], sums[0][i])
				}
			}
		}
	}
}

// BenchmarkBNReduce times the two float64 reductions of a batch-norm pass —
// fwd (Σx, Σx²) and bwd (Σdy, Σdy·x̂) — at batch 10 on TinyMobileNetV3's
// channel counts and plane sizes, under the vector kernel ("default") and the
// tiled Go loop ("generic"), and the single-chain oracle loop as a third arm
// ("ref"). ns/elem is per element of the batch; x-ref is how many times
// faster than the oracle the arm ran, both timed in the same arm.
func BenchmarkBNReduce(b *testing.B) {
	const n = 10
	for _, c := range []struct{ ch, hw int }{{8, 256}, {16, 256}, {24, 64}, {32, 64}} {
		r := frand.New(7)
		x := tensor.Randn(r, 1, n*c.ch*c.hw).Data()
		y := tensor.Randn(r, 1, n*c.ch*c.hw).Data()
		sum, dot := make([]float64, c.ch), make([]float64, c.ch)
		for _, pass := range []struct {
			name string
			b    []float32
		}{{"fwd", nil}, {"bwd", y}} {
			ref := func() {
				for ch := 0; ch < c.ch; ch++ {
					var s, d float64
					for i := 0; i < n; i++ {
						base := (i*c.ch + ch) * c.hw
						for j := 0; j < c.hw; j++ {
							v := float64(x[base+j])
							s += v
							if pass.b == nil {
								d += v * v
							} else {
								d += v * float64(pass.b[base+j])
							}
						}
					}
					sum[ch], dot[ch] = s, d
				}
			}
			perElem := func(b *testing.B, g func()) float64 {
				t0 := time.Now()
				for i := 0; i < b.N; i++ {
					g()
				}
				return float64(time.Since(t0).Nanoseconds()) / float64(b.N) / float64(len(x))
			}
			b.Run(fmt.Sprintf("%s/%dx%d", pass.name, c.ch, c.hw), func(b *testing.B) {
				vectest.BenchArms(b, func(b *testing.B) {
					per := perElem(b, func() { bnSums(sum, dot, x, pass.b, n, c.ch, c.hw) })
					b.StopTimer()
					b.ReportMetric(per, "ns/elem")
					b.ReportMetric(perElem(b, ref)/per, "x-ref")
				})
				b.Run("ref", func(b *testing.B) { b.ReportMetric(perElem(b, ref), "ns/elem") })
			})
		}
	}
}

// FuzzVecSweepsMatchGeneric is ROADMAP hardening item (b) for this package's
// vector sweeps (vec.HardSwish, vec.HardSwishGrad, vec.BiasAct, vec.BNNormalize,
// vec.BNGradX, vec.BNSumSq, vec.BNSumDot): random lengths, row counts, channel
// counts through both reduction tiles and their remainders, plane strides and
// seeds through the routines, the layers' Go loops and the single-chain
// oracle at tol 0, seeded with the block-edge tables above.
func FuzzVecSweepsMatchGeneric(f *testing.F) {
	for i, n := range vecSweepLens {
		f.Add(uint16(n), uint8(i), uint8(2), uint64(811+i))
	}
	for i, hw := range vecBNPlanes {
		f.Add(uint16(hw[0]*hw[1]), uint8(i), uint8(i), uint64(812+i))
	}
	for i, c := range []int{4, 7, 8, 9, 12, 16, 23, 24} {
		f.Add(uint16(5+i), uint8(i), uint8(c-1), uint64(813+i))
	}
	f.Fuzz(func(t *testing.T, n uint16, rows, chans uint8, seed uint64) {
		length, batch, c := int(n%300)+1, int(rows%4)+1, int(chans%26)+1
		if vectest.Have {
			runVecActCase(t, length, batch, seed)
		}
		runVecBNCase(t, batch, c, 1, length, seed)
	})
}

// vecTrainNet has one layer of every vectorised kind — stem, pointwise and
// depthwise convs (stride 1 and 2, 8 and 24 channels), batch norm over one,
// two and three vector tiles, hard-swish, squeeze-excite, a residual, dense —
// in TinyMobileNetV3's arrangement.
func vecTrainNet(r *frand.RNG) *Network {
	block := NewResidual(NewNetwork(
		NewConv2D(r, 8, 16, 1, 1, 0, 1), NewBatchNorm2D(16), NewHardSwish(),
		NewDepthwiseConv2D(r, 16, 3, 1, 1), NewBatchNorm2D(16), NewHardSwish(),
		NewSEBlock(r, 16, 4),
		NewConv2D(r, 16, 8, 1, 1, 0, 1), NewBatchNorm2D(8),
	), nil)
	return NewNetwork(
		NewConv2D(r, 3, 8, 3, 2, 1, 1), NewBatchNorm2D(8), NewHardSwish(),
		block,
		// TinyMobileNetV3's down-sampling bottleneck: 24 channels at stride 2.
		NewConv2D(r, 8, 24, 1, 1, 0, 1), NewBatchNorm2D(24), NewHardSwish(),
		NewDepthwiseConv2D(r, 24, 3, 2, 1), NewBatchNorm2D(24), NewHardSwish(),
		NewConv2D(r, 24, 8, 1, 1, 0, 1), NewBatchNorm2D(8),
		NewDepthwiseConv2D(r, 8, 3, 2, 1), NewBatchNorm2D(8), NewHardSwish(),
		NewGlobalAvgPool(),
		NewDense(r, 8, 5),
	)
}

// TestVecTrainingMatchesGeneric trains the same network for a few SGD steps
// under both settings and requires identical weights, running statistics,
// and frozen-forward logits.
func TestVecTrainingMatchesGeneric(t *testing.T) {
	vectest.Require(t)
	run := func(on bool) ([][]float32, []float32) {
		vectest.SetLive(t, on)
		net := vecTrainNet(frand.New(31))
		r := frand.New(32)
		opt := NewSGD(0.05, 0.9)
		for step := 0; step < 3; step++ {
			x := tensor.Randn(r, 1, 4, 3, 18, 14)
			out := net.Forward(x, true)
			_, g := evalGrad(SoftmaxCrossEntropy{}, out, ClassTarget([]int{0, 1, 2, 3}))
			net.Backward(g)
			opt.Step(net.Params())
		}
		var ws [][]float32
		snap := net.Snapshot()
		for _, p := range snap.Params {
			ws = append(ws, p.Data())
		}
		for _, s := range snap.States {
			ws = append(ws, s.Data())
		}
		logits := net.Freeze().Infer(tensor.Randn(r, 1, 2, 3, 18, 14))
		return ws, slices.Clone(logits.Data())
	}
	wantW, wantL := run(false)
	gotW, gotL := run(true)
	for i := range wantW {
		exactSlice(t, fmt.Sprintf("weights %d", i), gotW[i], wantW[i])
	}
	exactSlice(t, "frozen logits", gotL, wantL)
}

// TestPlaneMeanMatchesOneChain: the plane mean's side-by-side chains give
// each plane exactly the one ascending chain the reference pooling layers
// run, for 1–9 planes (sweeps of four, a remainder, both) at
// every plane size up to 70, over operands carrying ±0, the ±3 knees, ±Inf
// and NaNs of two payloads, from plane offsets 0 and 1.
func TestPlaneMeanMatchesOneChain(t *testing.T) {
	r := frand.New(85)
	nan2 := math.Float32frombits(0xffc00123)
	for planes := 1; planes <= 9; planes++ {
		for hw := 1; hw <= 70; hw++ {
			xd := sweepOperand(r, (planes+1)*hw, 3)
			xd[r.Intn(len(xd))] = nan2
			for _, lo := range []int{0, 1} {
				got := make([]float32, planes+1)
				want := slices.Clone(got)
				planeMean(got[lo:lo+planes], xd[lo*hw:], hw)
				inv := 1 / float32(hw)
				for i := lo; i < lo+planes; i++ {
					var s float32
					for _, v := range xd[i*hw : (i+1)*hw] {
						s += v
					}
					want[i] = s * inv
				}
				exactSlice(t, fmt.Sprintf("%d planes of %d from %d", planes, hw, lo), got, want)
			}
		}
	}
}

// TestVecRowSweepsStayInsideSlices: the squeeze-excite rescale and the
// residual sum on operands that end at an inaccessible page, at every length
// through the 32- and 8-wide blocks and the masked tail.
func TestVecRowSweepsStayInsideSlices(t *testing.T) {
	vectest.Require(t)
	r := frand.New(86)
	guarded := func(v []float32) []float32 {
		g := guardmem.Float32s(t, len(v))
		copy(g, v)
		return g
	}
	for n := 1; n <= 67; n++ {
		const rows = 3
		x, z := sweepOperand(r, rows*n, 1), sweepOperand(r, rows, 1)
		var want [2][]float32
		for i, on := range []bool{false, true} {
			vectest.SetLive(t, on)
			out := guarded(make([]float32, rows*n))
			scaleRows(out, guarded(x), guarded(z), n)
			want[i] = out
		}
		exactSlice(t, fmt.Sprintf("guarded rescale n=%d", n), want[1], want[0])

		a, b := sweepOperand(r, n, 1), sweepOperand(r, n, 1)
		for i, on := range []bool{false, true} {
			vectest.SetLive(t, on)
			out := guarded(make([]float32, n))
			addInto(out, guarded(a), guarded(b))
			want[i] = out
		}
		exactSlice(t, fmt.Sprintf("guarded residual sum n=%d", n), want[1], want[0])
	}
}

// TestVecSweepsRejectShortSlices: every wrapper panics on a slice shorter
// than the extent its routine touches, and returns on an empty extent
// without touching anything. The wrappers are shared code, so this runs in
// every build.
func TestVecSweepsRejectShortSlices(t *testing.T) {
	f := func(n int) []float32 { return make([]float32, n) }
	d := func(n int) []float64 { return make([]float64, n) }
	for _, tc := range []struct {
		name string
		call func()
	}{
		{"hard-swish y", func() { vec.HardSwish(f(8), f(9)) }},
		{"hard-swish grad dx", func() { vec.HardSwishGrad(f(8), f(9), f(9)) }},
		{"hard-swish grad dy", func() { vec.HardSwishGrad(f(9), f(8), f(9)) }},
		{"bias y", func() { vec.BiasAct(f(3*9-1), 3, 9, f(3), false) }},
		{"bias bias", func() { vec.BiasAct(f(3*9), 3, 9, f(2), true) }},
		{"bn normalise out", func() { vec.BNNormalize(f(2*20+9-1), f(2*20+9), f(2*20+9), 20, 3, 9, 0, 1, 1, 0) }},
		{"bn normalise xhat", func() { vec.BNNormalize(f(2*20+9), f(2*20+9-1), f(2*20+9), 20, 3, 9, 0, 1, 1, 0) }},
		{"bn normalise x", func() { vec.BNNormalize(f(2*20+9), f(2*20+9), f(2*20+9-1), 20, 3, 9, 0, 1, 1, 0) }},
		{"bn normalise stride", func() { vec.BNNormalize(f(64), f(64), f(64), 8, 3, 9, 0, 1, 1, 0) }},
		{"bn grad dx", func() { vec.BNGradX(f(2*20+9-1), f(2*20+9), f(2*20+9), 20, 3, 9, 1, 1, 27, 0, 0) }},
		{"bn grad dy", func() { vec.BNGradX(f(2*20+9), f(2*20+9-1), f(2*20+9), 20, 3, 9, 1, 1, 27, 0, 0) }},
		{"bn grad xhat", func() { vec.BNGradX(f(2*20+9), f(2*20+9), f(2*20+9-1), 20, 3, 9, 1, 1, 27, 0, 0) }},
		{"bn sums x", func() { vec.BNSumSq(d(8), d(8), f(2*50+8*5-1), 50, 3, 5) }},
		{"bn sums sum", func() { vec.BNSumSq(d(7), d(8), f(2*50+8*5), 50, 3, 5) }},
		{"bn sums sq", func() { vec.BNSumSq(d(8), d(7), f(2*50+8*5), 50, 3, 5) }},
		{"bn sums stride", func() { vec.BNSumSq(d(8), d(8), f(200), 39, 3, 5) }},
		{"bn grad sums a", func() { vec.BNSumDot(d(8), d(8), f(2*50+8*5-1), f(2*50+8*5), 50, 3, 5) }},
		{"bn grad sums b", func() { vec.BNSumDot(d(8), d(8), f(2*50+8*5), f(2*50+8*5-1), 50, 3, 5) }},
		{"bn grad sums dot", func() { vec.BNSumDot(d(8), d(7), f(2*50+8*5), f(2*50+8*5), 50, 3, 5) }},
		{"bn grad sums empty", func() { vec.BNSumDot(d(8), d(7), nil, nil, 50, 0, 5) }},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "too short") {
					t.Fatalf("%s: recovered %q, want the wrapper's length panic", tc.name, msg)
				}
			}()
			tc.call()
		}()
	}
	vec.HardSwish(nil, nil)
	vec.HardSwishGrad(nil, nil, nil)
	vec.BiasAct(nil, 0, 9, nil, true)
	vec.BiasAct(nil, 3, 0, nil, false)
	vec.BNNormalize(nil, nil, nil, 4, 0, 4, 0, 1, 1, 0)
	vec.BNGradX(nil, nil, nil, 4, 2, 0, 1, 1, 8, 0, 0)
	// An empty reduction still defines its sixteen sums: +0.
	sum, dot := []float64{1, 2, 3, 4, 5, 6, 7, 8}, []float64{1, 2, 3, 4, 5, 6, 7, 8}
	vec.BNSumSq(sum, dot, nil, 40, 0, 5)
	vec.BNSumDot(sum[:8], dot, nil, nil, 40, 3, 0)
	for i := range sum {
		if math.Float64bits(sum[i]) != 0 || math.Float64bits(dot[i]) != 0 {
			t.Fatalf("empty reduction left sum[%d] = %v, dot[%d] = %v, want +0", i, sum[i], i, dot[i])
		}
	}
}

// TestFrozenAutoIsSerial: auto runs the oracle tier on every build, so a
// frozen network whose fused matmul is deeper than the packed kernel's
// k-block (SimpleCNN's 768-wide dense — the one place packed and oracle
// differ in bits) infers exactly what the serial backend infers on the Go
// loops, as a -tags purego build runs them.
func TestFrozenAutoIsSerial(t *testing.T) {
	vectest.SetLive(t, false)
	frozenAutoMatchesSerial(t)
}

// TestFrozenAutoIsSerialWhenVectorLive: the same identity on the vector
// kernels.
func TestFrozenAutoIsSerialWhenVectorLive(t *testing.T) {
	vectest.Require(t)
	vectest.SetLive(t, true)
	frozenAutoMatchesSerial(t)
}

// frozenAutoMatchesSerial freezes a 768-deep dense stack and compares its
// auto and serial outputs bit for bit.
func frozenAutoMatchesSerial(t *testing.T) {
	t.Helper()
	r := frand.New(51)
	net := NewNetwork(NewFlatten(), NewDense(r, 768, 64), NewReLU(), NewDense(r, 64, 12))
	x := tensor.Randn(r, 1, 16, 3, 16, 16)
	infer := func(b tensor.Backend) []float32 {
		forceNNBackend(t, b)
		return slices.Clone(net.Freeze().Infer(x).Data())
	}
	exactSlice(t, "frozen auto vs serial", infer(tensor.BackendAuto), infer(tensor.BackendSerial))
}

// refSEForward and refSEBackward are SEBlock's passes as they ran before the
// block took the frozen op's kernels (planeMean, scaleRows) and planeDot and
// BiasAct: one serial loop per plane. They drive the block's own excitation
// layers, so a block run through them is the oracle of a twin run through
// Forward and Backward.
func refSEForward(l *SEBlock, x *tensor.Tensor, train bool) *tensor.Tensor {
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	l.x = x
	hw := h * w
	s := tensor.New(n, c)
	xd, sd := x.Data(), s.Data()
	inv := 1 / float32(hw)
	for i := 0; i < n*c; i++ {
		var sum float32
		for j := 0; j < hw; j++ {
			sum += xd[i*hw+j]
		}
		sd[i] = sum * inv
	}
	z := l.hsig.Forward(l.fc2.Forward(l.relu.Forward(l.fc1.Forward(s, train), train), train), train)
	l.z = z
	out := tensor.New(n, c, h, w)
	od, zd := out.Data(), z.Data()
	for i := 0; i < n*c; i++ {
		zi := zd[i]
		for j := 0; j < hw; j++ {
			od[i*hw+j] = xd[i*hw+j] * zi
		}
	}
	return out
}

func refSEBackward(l *SEBlock, grad *tensor.Tensor) *tensor.Tensor {
	n, c, h, w := l.x.Dim(0), l.x.Dim(1), l.x.Dim(2), l.x.Dim(3)
	hw := h * w
	gd, xd, zd := grad.Data(), l.x.Data(), l.z.Data()
	dz := tensor.New(n, c)
	dzd := dz.Data()
	dx := tensor.New(n, c, h, w)
	dxd := dx.Data()
	for i := 0; i < n*c; i++ {
		var s float32
		zi := zd[i]
		for j := 0; j < hw; j++ {
			g := gd[i*hw+j]
			s += g * xd[i*hw+j]
			dxd[i*hw+j] = g * zi
		}
		dzd[i] = s
	}
	ds := l.fc1.Backward(l.relu.Backward(l.fc2.Backward(l.hsig.Backward(dz))))
	dsd := ds.Data()
	inv := 1 / float32(hw)
	for i := 0; i < n*c; i++ {
		g := dsd[i] * inv
		for j := 0; j < hw; j++ {
			dxd[i*hw+j] += g
		}
	}
	return dx
}

// TestSEBlockMatchesLoops: a squeeze-excite block's forward output, input
// gradient and parameter gradients are its serial loops' bits (refSEForward,
// refSEBackward) under both settings of the switch, for 1–17 channels (the
// dz dot's sweeps of four, a remainder, both) and planes from 1×1 to 9×9, on
// operands carrying ±0, the ±3 knees and denormals, and again with ±Inf and
// NaN planted in x and dy (vectest.NaNClassEqual: NaN payloads too, but
// under -race).
func TestSEBlockMatchesLoops(t *testing.T) {
	vectest.BothSettings(t, func(t *testing.T) {
		r := frand.New(86)
		for _, c := range []int{1, 3, 4, 5, 8, 16, 17} {
			for _, hw := range []int{1, 2, 3, 7, 8, 9} {
				for _, nonFinite := range []bool{false, true} {
					n := 1 + c%3
					operand := func() *tensor.Tensor {
						v := sweepOperand(r, n*c*hw*hw, 2)
						for i, x := range v {
							if !nonFinite && (math.IsInf(float64(x), 0) || x != x) {
								v[i] = -0.75
							}
						}
						if nonFinite { // a second payload, to meet the first
							v[r.Intn(len(v))] = math.Float32frombits(0xffc00123)
						}
						return tensor.FromSlice(v, n, c, hw, hw)
					}
					x, dy := operand(), operand()
					seed := r.Uint64()
					got, want := NewSEBlock(frand.New(seed), c, max(2, c/4)), NewSEBlock(frand.New(seed), c, max(2, c/4))
					name := fmt.Sprintf("%d×%d planes of %dx%d (non-finite %v)", n, c, hw, hw, nonFinite)
					vectest.NaNClassEqual(t, name+" forward", got.Forward(x, true).Data(), refSEForward(want, x, true).Data())
					vectest.NaNClassEqual(t, name+" dx", got.Backward(dy).Data(), refSEBackward(want, dy).Data())
					for i, p := range got.Params() {
						vectest.NaNClassEqual(t, fmt.Sprintf("%s %s grad", name, p.Name), p.Grad.Data(), want.Params()[i].Grad.Data())
					}
				}
			}
		}
	})
}
