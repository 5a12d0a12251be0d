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
// settings of the switch and requires identical bits: the hard-swish sweep of
// batch norm's eval pass, the one-row conv epilogue (bias, then each of the
// three acts), the rows × n training bias add of a pointwise
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
		act := slices.Clone(x)
		tensor.ApplyAct(act, vec.ActHardSwish)
		planes := slices.Clone(conv.Forward(tensor.FromSlice(slices.Clone(x), 1, 1, 1, n), true).Data())
		scaled := make([]float32, rows*n)
		scaleRows(scaled, slices.Repeat(x, rows), z, n)
		sum := make([]float32, n)
		tensor.Add(sum, x, dy)
		res := [][]float32{act, planes, scaled, sum}
		for _, a := range vecBNActs {
			for i := range bias {
				row := slices.Clone(x)
				tensor.BiasAct(row, bias[i], a)
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

// vecBNActs are the activations a batch norm carries.
var vecBNActs = []vec.Act{vec.ActIdentity, vec.ActReLU, vec.ActHardSwish}

// refBNTrain is BatchNorm2D's training forward and backward with act as they
// ran before the reductions were tiled and before the layer carried its
// activation: per channel, ONE float64 accumulator pair over the batch
// (samples, then positions, ascending), the scalar normalise loop storing x̂
// and z, the activation layers' own forward and backward loops on z, then the
// input-gradient loop on x̂. It is the oracle both settings of the layer must
// match bit for bit; rm and rv are updated in place, dgamma and dbeta
// accumulated onto.
func refBNTrain(xd, gd []float32, n, ch, hw int, act vec.Act, gamma, beta, rm, rv, dgamma, dbeta []float32, eps, momentum float64) (y, dx []float32) {
	m := n * hw
	z, xh, dx := make([]float32, len(xd)), make([]float32, len(xd)), make([]float32, len(xd))
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
				z[base+j] = g*xv + b
			}
		}
	}
	// The activation layer: ReLU's and HardSwish's forward and backward loops.
	y, dz := slices.Clone(z), slices.Clone(gd)
	for i, v := range z {
		switch act {
		case vec.ActReLU:
			if v > 0 {
				y[i] = v
			} else {
				y[i] = 0
			}
			if v > 0 {
				dz[i] = gd[i]
			} else {
				dz[i] = 0
			}
		case vec.ActHardSwish:
			y[i] = v * tensor.HardSigmoid(v)
			der := tensor.HardSigmoid(v)
			if v > -3 && v < 3 {
				der += v / 6
			}
			dz[i] = gd[i] * der
		}
	}
	mf := float32(m)
	for c := 0; c < ch; c++ {
		var sumDy, sumDyXhat float64
		for i := 0; i < n; i++ {
			base := (i*ch + c) * hw
			for j := 0; j < hw; j++ {
				dy := float64(dz[base+j])
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
				dxhat := dz[base+j] * g
				dx[base+j] = inv / mf * (mf*dxhat - sDy*g - xh[base+j]*sDyXh*g)
			}
		}
	}
	return y, dx
}

// bnSpecials are the per-channel (γ, β) pairs of runVecBNCase, cycled over
// the channels: γ = 0 pins z at the ±3 knees and at ±0 (β = −0 gives
// z = ±0 by the sign of x̂), γ = +Inf sends z to ±Inf, and the rest spread z
// across both knees.
var bnSpecials = [][2]float32{
	{1.25, 0.1}, {-0.5, -2}, {0, 3}, {3, 1e-39},
	{0, -3}, {0, float32(math.Copysign(0, -1))}, {float32(math.Inf(1)), 0.5}, {2.5, 0.25},
}

// runVecBNCase runs the training forward (out, running statistics) and
// backward (dx, dγ, dβ) of BatchNorm2D with act on an [n, c, h, w] batch under
// both settings of the switch and requires refBNTrain's bits of both. The
// inputs carry ±0 and denormals, dy carries ±Inf and NaNs of two payloads,
// one x in a batch of more than 64 elements is a NaN (which takes its
// channel's statistics with it), the channels cycle through bnSpecials, and
// the gradients accumulate onto junk. The reductions run four channels a
// sweep in Go and eight a sweep in the vector kernel, each channel still
// folded one element at a time; the elementwise passes walk n planes of h·w
// elements c·h·w apart. Under -race NaN payloads are held as a class
// (vectest.NaNClassEqual), and everywhere when nanClass is set.
func runVecBNCase(t *testing.T, n, c, h, w int, act vec.Act, seed uint64, nanClass bool) {
	t.Helper()
	r := frand.New(seed)
	size := n * c * h * w
	x := tensor.Randn(r, 1.5, size).Data()
	dy := tensor.Randn(r, 1, size).Data()
	x[0], dy[size-1] = float32(math.Copysign(0, -1)), 1e-39
	x[size/2], dy[size/3] = -1e-41, 0
	x[size-1], dy[0] = 0, float32(math.Copysign(0, -1))
	dy[r.Intn(size)] = float32(math.Inf(1))
	dy[r.Intn(size)] = float32(math.Inf(-1))
	dy[r.Intn(size)] = math.Float32frombits(0x7fc00001)
	dy[r.Intn(size)] = math.Float32frombits(0xffc00123)
	if size > 64 {
		x[r.Intn(size)] = math.Float32frombits(0xffc00456)
	}
	gamma, beta := make([]float32, c), make([]float32, c)
	junkG, junkB := tensor.Randn(r, 1, c).Data(), tensor.Randn(r, 1, c).Data()
	for i := range gamma {
		gamma[i], beta[i] = bnSpecials[i%len(bnSpecials)][0], bnSpecials[i%len(bnSpecials)][1]
		if gamma[i] != 0 {
			gamma[i] += float32(i/len(bnSpecials)) * 0.125
		}
	}
	what := []string{"out", "dx", "runMean", "runVar", "dGamma", "dBeta"}
	wantRM, wantRV := make([]float32, c), slices.Repeat([]float32{1}, c)
	wantDG, wantDB := slices.Clone(junkG), slices.Clone(junkB)
	l := NewBatchNorm2D(c, act)
	wantOut, wantDx := refBNTrain(x, dy, n, c, h*w, act, gamma, beta, wantRM, wantRV, wantDG, wantDB, l.Eps, l.Momentum)
	want := [][]float32{wantOut, wantDx, wantRM, wantRV, wantDG, wantDB}
	for _, on := range []bool{false, true} {
		vectest.SetLive(t, on)
		l := NewBatchNorm2D(c, act)
		l.Gamma.W.CopyFrom(tensor.FromSlice(gamma, c))
		l.Beta.W.CopyFrom(tensor.FromSlice(beta, c))
		l.Gamma.Grad.CopyFrom(tensor.FromSlice(junkG, c))
		l.Beta.Grad.CopyFrom(tensor.FromSlice(junkB, c))
		out := l.Forward(tensor.FromSlice(slices.Clone(x), n, c, h, w), true)
		dx := l.Backward(tensor.FromSlice(slices.Clone(dy), n, c, h, w))
		got := [][]float32{
			out.Data(), dx.Data(), l.RunMean.Data(), l.RunVar.Data(),
			l.Gamma.Grad.Data(), l.Beta.Grad.Data(),
		}
		for i := range want {
			name := fmt.Sprintf("bn act=%d n=%d c=%d %dx%d seed %d vec=%v %s", act, n, c, h, w, seed, on, what[i])
			if nanClass {
				for k, v := range got[i] {
					if math.Float32bits(v) != math.Float32bits(want[i][k]) && !(v != v && want[i][k] != want[i][k]) {
						t.Fatalf("%s: element %d differs: %v != %v", name, k, v, want[i][k])
					}
				}
				continue
			}
			vectest.NaNClassEqual(t, name, got[i], want[i])
		}
	}
}

// TestVecBatchNormMatchesGeneric: runVecBNCase on the plane table at batch 1
// and 3, for every activation.
func TestVecBatchNormMatchesGeneric(t *testing.T) {
	for _, act := range vecBNActs {
		for i, hw := range vecBNPlanes {
			for _, n := range []int{1, 3} {
				runVecBNCase(t, n, 3, hw[0], hw[1], act, uint64(812+i), false)
			}
		}
	}
}

// TestBatchNormReductionTiles sweeps the channel counts around the four-
// channel Go tile and the eight-channel vector tile (a tile plus every
// remainder, and TinyMobileNetV3's 16 and 24) against plane sizes around the
// four-j block of the transposing read, at batch 1, 3 and 10, for every
// activation.
func TestBatchNormReductionTiles(t *testing.T) {
	seed := uint64(900)
	for _, act := range vecBNActs {
		for _, c := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 24} {
			for _, hw := range []int{1, 3, 4, 5, 7, 64, 256} {
				for _, n := range []int{1, 3, 10} {
					if testing.Short() && hw == 256 && n == 10 && c < 16 {
						continue
					}
					seed++
					runVecBNCase(t, n, c, 1, hw, act, seed, false)
				}
			}
		}
	}
}

// TestVecBNSumsStayInsideSlices: the transposing reductions read four
// consecutive j of eight channels at a time, and the backward's also stores
// dz there; on planes of every length mod 4 whose batch ends at an
// inaccessible page — x, dy and dz each — both must touch the last element
// and nothing after it, and the backward must store dz exactly where the Go
// loops do.
func TestVecBNSumsStayInsideSlices(t *testing.T) {
	vectest.Require(t)
	r := frand.New(83)
	for _, hw := range []int{1, 2, 3, 4, 5, 6, 7, 9, 64} {
		const n, ch = 3, 8
		x, dy := guardmem.Float32s(t, n*ch*hw), guardmem.Float32s(t, n*ch*hw)
		copy(x, sweepOperand(r, len(x), 2))
		copy(dy, sweepOperand(r, len(dy), 1))
		var sums [2][2 * ch]float64
		for i, on := range []bool{false, true} {
			vectest.SetLive(t, on)
			bnSums(sums[i][:ch], sums[i][ch:], x, n, ch, hw)
		}
		exactSums(t, fmt.Sprintf("hw=%d forward", hw), sums[1][:], sums[0][:])
		for _, act := range vecBNActs {
			l := NewBatchNorm2D(ch, act)
			l.mean, l.invStd = tensor.Randn(r, 1, ch).Data(), tensor.Randn(r, 1, ch).Data()
			copy(l.Gamma.W.Data(), tensor.Randn(r, 2, ch).Data())
			copy(l.Beta.W.Data(), tensor.Randn(r, 1, ch).Data())
			var dz [2][]float32
			for i, on := range []bool{false, true} {
				vectest.SetLive(t, on)
				dz[i] = guardmem.Float32s(t, len(x))
				a := dz[i]
				if act == vec.ActIdentity {
					a = dy
				}
				l.gradSums(sums[i][:ch], sums[i][ch:], a, dy, x, n, hw)
			}
			name := fmt.Sprintf("hw=%d act=%d backward", hw, act)
			exactSums(t, name, sums[1][:], sums[0][:])
			exactSlice(t, name+" dz", dz[1], dz[0])
		}
	}
}

// exactSums requires two slices of float64 sums to be identical bit for bit,
// holding NaN as a class where vectest.NaNChoiceOpen, as
// vectest.NaNClassEqual does.
func exactSums(t *testing.T, name string, got, want []float64) {
	t.Helper()
	for i := range want {
		if g, w := got[i], want[i]; math.Float64bits(g) != math.Float64bits(w) && !(vectest.NaNChoiceOpen() && g != g && w != w) {
			t.Fatalf("%s: sum %d = %v, want %v", name, i, got[i], want[i])
		}
	}
}

// BenchmarkBNReduce times batch norm's training passes at batch 10 on
// TinyMobileNetV3's channel counts and plane sizes. fwd and bwd are the two
// float64 reductions — the forward's (Σx, Σx²) and the identity backward's
// (Σdy, Σdy·x̂, x̂ recomputed from x) — under the vector kernel ("default")
// and the tiled Go loop ("generic"), with the single-chain oracle loop as a
// third arm ("ref"); x-ref is how many times faster than the oracle the arm
// ran, both timed in the same arm. train-fwd and train-bwd are the layer's
// whole training forward (reduction, statistics, normalise with the
// activation) and backward (reduction with dz, input gradient) with ReLU and
// hard-swish, under the two settings. ns/elem is per element of the batch.
func BenchmarkBNReduce(b *testing.B) {
	const n = 10
	perElem := func(b *testing.B, elems int, g func()) float64 {
		t0 := time.Now()
		for i := 0; i < b.N; i++ {
			g()
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(b.N) / float64(elems)
	}
	for _, c := range []struct{ ch, hw int }{{8, 256}, {16, 256}, {24, 256}, {24, 64}, {32, 64}} {
		r := frand.New(7)
		x := tensor.Randn(r, 1, n*c.ch*c.hw).Data()
		y := tensor.Randn(r, 1, n*c.ch*c.hw).Data()
		sum, dot := make([]float64, c.ch), make([]float64, c.ch)
		l := NewBatchNorm2D(c.ch, vec.ActIdentity)
		l.mean, l.invStd = tensor.Randn(r, 1, c.ch).Data(), tensor.Randn(r, 1, c.ch).Data()
		for _, pass := range []struct {
			name string
			run  func()
		}{
			{"fwd", func() { bnSums(sum, dot, x, n, c.ch, c.hw) }},
			{"bwd", func() { l.gradSums(sum, dot, y, y, x, n, c.hw) }},
		} {
			ref := func() {
				for ch := 0; ch < c.ch; ch++ {
					var s, d float64
					for i := 0; i < n; i++ {
						base := (i*c.ch + ch) * c.hw
						for j := 0; j < c.hw; j++ {
							if pass.name == "fwd" {
								v := float64(x[base+j])
								s += v
								d += v * v
							} else {
								v := float64(y[base+j])
								s += v
								d += v * float64((x[base+j]-l.mean[ch])*l.invStd[ch])
							}
						}
					}
					sum[ch], dot[ch] = s, d
				}
			}
			b.Run(fmt.Sprintf("%s/%dx%d", pass.name, c.ch, c.hw), func(b *testing.B) {
				vectest.BenchArms(b, func(b *testing.B) {
					per := perElem(b, len(x), pass.run)
					b.StopTimer()
					b.ReportMetric(per, "ns/elem")
					b.ReportMetric(perElem(b, len(x), ref)/per, "x-ref")
				})
				b.Run("ref", func(b *testing.B) { b.ReportMetric(perElem(b, len(x), ref), "ns/elem") })
			})
		}
		for _, act := range []struct {
			name string
			act  vec.Act
		}{{"relu", vec.ActReLU}, {"hswish", vec.ActHardSwish}} {
			xt, dyt := tensor.FromSlice(x, n, c.ch, 1, c.hw), tensor.FromSlice(y, n, c.ch, 1, c.hw)
			l, arena := NewBatchNorm2D(c.ch, act.act), tensor.NewArena()
			l.SetArena(arena) // as in a Network: each pass takes its output from the arena
			for _, pass := range []struct {
				name string
				run  func()
			}{
				{"train-fwd", func() { arena.Reset(); l.Forward(xt, true) }},
				// The backward reads the forward's input and statistics, none of
				// which lives in the arena.
				{"train-bwd", func() { arena.Reset(); l.Backward(dyt) }},
			} {
				b.Run(fmt.Sprintf("%s/%s/%dx%d", pass.name, act.name, c.ch, c.hw), func(b *testing.B) {
					vectest.BenchArms(b, func(b *testing.B) {
						l.Forward(xt, true)
						b.ResetTimer()
						b.ReportMetric(perElem(b, len(x), pass.run), "ns/elem")
					})
				})
			}
		}
	}
}

// BenchmarkPlaneSums times the plane mean at TinyMobileNetV3's shapes — the
// squeeze-excite squeeze of its three bottlenecks (se/16x256, se/24x64,
// se/32x64) and the head's global average pool (gap/32x64), one sample each —
// under the vector routine ("default") and the Go loop ("generic"); ns/elem
// is per element of the planes.
func BenchmarkPlaneSums(b *testing.B) {
	for _, c := range []struct {
		name          string
		planes, plane int
	}{{"se/16x256", 16, 256}, {"se/24x64", 24, 64}, {"se/32x64", 32, 64}, {"gap/32x64", 32, 64}} {
		x := tensor.Randn(frand.New(9), 1, c.planes*c.plane).Data()
		out := make([]float32, c.planes)
		b.Run(c.name, func(b *testing.B) {
			vectest.BenchArms(b, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					planeMean(out, x, c.plane)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(x)), "ns/elem")
			})
		})
	}
}

// FuzzVecSweepsMatchGeneric is ROADMAP hardening item (b) for this package's
// vector sweeps (vec.BiasAct, and batch norm with its
// activation: vec.BNNormalize, vec.BNSumSq, vec.BNSumDot, vec.BNGradX):
// random lengths, row counts, channel counts through both reduction tiles and
// their remainders, plane strides, activations and seeds through the
// routines, the layers' Go loops and the single-chain oracle at tol 0, seeded
// with the block-edge tables above. Batch norm's NaNs are held as a class
// here: which of two NaN operands survives is the compiler's choice, and the
// fuzzing build's coverage instrumentation changes it; the plain-build tests
// above hold the payloads.
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
		runVecBNCase(t, batch, c, 1, length, vecBNActs[seed%3], seed, true)
	})
}

// vecTrainNet has one layer of every vectorised kind — stem, pointwise and
// depthwise convs (stride 1 and 2, 8 and 24 channels), batch norm over one,
// two and three vector tiles, hard-swish, squeeze-excite, a residual, dense —
// in TinyMobileNetV3's arrangement.
func vecTrainNet(r *frand.RNG) *Network {
	block := NewResidual(NewNetwork(
		NewConv2D(r, 8, 16, 1, 1, 0, 1), NewBatchNorm2D(16, vec.ActHardSwish),
		NewDepthwiseConv2D(r, 16, 3, 1, 1), NewBatchNorm2D(16, vec.ActHardSwish),
		NewSEBlock(r, 16, 4),
		NewConv2D(r, 16, 8, 1, 1, 0, 1), NewBatchNorm2D(8, vec.ActIdentity),
	), nil)
	return NewNetwork(
		NewConv2D(r, 3, 8, 3, 2, 1, 1), NewBatchNorm2D(8, vec.ActHardSwish),
		block,
		// TinyMobileNetV3's down-sampling bottleneck: 24 channels at stride 2.
		NewConv2D(r, 8, 24, 1, 1, 0, 1), NewBatchNorm2D(24, vec.ActHardSwish),
		NewDepthwiseConv2D(r, 24, 3, 2, 1), NewBatchNorm2D(24, vec.ActHardSwish),
		NewConv2D(r, 24, 8, 1, 1, 0, 1), NewBatchNorm2D(8, vec.ActIdentity),
		NewDepthwiseConv2D(r, 8, 3, 2, 1), NewBatchNorm2D(8, vec.ActHardSwish),
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

// planeOperand is sweepOperand over planes of hw elements with the edges of
// a plane's chain planted: plane 1 meets two NaN payloads, 0xffc00123 first
// (the running sum is the first operand of every add, so its NaN survives),
// and plane 2 is all −0 (a chain from +0 ends at +0; one that started at its
// first element would end at −0).
func planeOperand(r *frand.RNG, planes, hw int) []float32 {
	xd := sweepOperand(r, planes*hw, 3)
	xd[r.Intn(len(xd))] = nan2
	if planes > 1 && hw > 1 {
		xd[hw], xd[2*hw-1] = nan2, float32(math.NaN())
	}
	if planes > 2 {
		for j := 2 * hw; j < 3*hw; j++ {
			xd[j] = negZero
		}
	}
	return xd
}

// nan2 is the second NaN payload of the plane-sum tests, nanB the one the
// plane dot's b meets a's NaNs with; negZero is −0.
var nan2, nanB, negZero = math.Float32frombits(0xffc00123), math.Float32frombits(0x7fc00bbb), float32(math.Copysign(0, -1))

// sumFirst is s + v with s's NaN surviving when both are NaN, as an add
// whose first operand is s returns it. Go leaves the operand order of its
// float adds to the compiler, so the oracle spells the order out.
func sumFirst(s, v float32) float32 {
	if s != s {
		return s
	}
	return s + v
}

// mulFirst is a·b with a's NaN surviving when both are NaN, as sumFirst is
// for the add.
func mulFirst(a, b float32) float32 {
	if a != a {
		return a
	}
	return a * b
}

// oneChain is Σ a[j] (Σ a[j]·b[j] when b is not nil) from +0 in ascending j,
// the running sum the first operand of every add and a the first of every
// multiply: the serial chain every plane sum promises.
func oneChain(a, b []float32) float32 {
	var s float32
	for j, v := range a {
		if b != nil {
			v = mulFirst(v, b[j])
		}
		s = sumFirst(s, v)
	}
	return s
}

// planeSumPlanes is every plane count the plane-sum tests sweep: below the
// routine's eight lanes, whole groups, the two-group pairs of the sum form
// and every remainder.
const planeSumPlanes = 33

// The three tests below hold planeSums' three forms against oneChain, each
// through its caller: the stored sum (the plane mean), the dot (the
// squeeze-excite backward) and the accumulating sum (the conv bias gradient,
// once per sample).

// TestPlaneMeanMatchesOneChain: the plane mean gives each plane exactly the
// one ascending chain the reference pooling layers run, times 1/hw, under
// both settings of the switch, for 1–33 planes (the Go loop's sweeps of four,
// the routine's groups of eight and pairs of groups, and remainders) at every
// plane size up to 70, over operands carrying ±0, an all −0 plane, the ±3
// knees, ±Inf and NaNs of two payloads in one chain, from plane offsets 0 and
// 1.
func TestPlaneMeanMatchesOneChain(t *testing.T) {
	r := frand.New(85)
	for _, on := range []bool{false, true} {
		vectest.SetLive(t, on)
		for planes := 1; planes <= planeSumPlanes; planes++ {
			for hw := 1; hw <= 70; hw++ {
				xd := planeOperand(r, planes+1, hw)
				for _, lo := range []int{0, 1} {
					got := make([]float32, planes+1)
					want := slices.Clone(got)
					planeMean(got[lo:lo+planes], xd[lo*hw:], hw)
					inv := 1 / float32(hw)
					for i := lo; i < lo+planes; i++ {
						want[i] = oneChain(xd[i*hw:(i+1)*hw], nil) * inv
					}
					vectest.NaNClassEqual(t, fmt.Sprintf("vec=%v %d planes of %d from %d", on, planes, hw, lo), got, want)
				}
			}
		}
	}
}

// TestPlaneDotMatchesOneChain: the squeeze-excite backward's plane dot
// against one serial chain per plane, each product rounded before its add,
// under both settings, on TestPlaneMeanMatchesOneChain's sweep: every NaN of
// a meets b's NaN nanB in its product, where a's must survive; a's two NaN
// payloads then meet in the chain's adds; and b puts 1 under a's all −0
// plane, so its products stay −0.
func TestPlaneDotMatchesOneChain(t *testing.T) {
	r := frand.New(87)
	for _, on := range []bool{false, true} {
		vectest.SetLive(t, on)
		for planes := 1; planes <= planeSumPlanes; planes++ {
			for hw := 1; hw <= 70; hw++ {
				ad, bd := planeOperand(r, planes+1, hw), sweepOperand(r, (planes+1)*hw, 2)
				for j, v := range ad {
					if v != v {
						bd[j] = nanB
					}
				}
				if planes > 2 {
					for j := 2 * hw; j < 3*hw; j++ {
						bd[j] = 1
					}
				}
				for _, lo := range []int{0, 1} {
					got := make([]float32, planes+1)
					want := slices.Clone(got)
					planeSums(got[lo:lo+planes], ad[lo*hw:], bd[lo*hw:], hw, false)
					for i := lo; i < lo+planes; i++ {
						want[i] = oneChain(ad[i*hw:(i+1)*hw], bd[i*hw:(i+1)*hw])
					}
					vectest.NaNClassEqual(t, fmt.Sprintf("vec=%v %d planes of %d from %d", on, planes, hw, lo), got, want)
				}
			}
		}
	}
}

// TestBiasGradMatchesOneChain: the conv bias gradient against one serial
// chain per output channel and sample, each added onto db[r] once finished,
// samples ascending, under both settings: 1–33 channels, 1–3 samples, row
// lengths through the four-column blocks and their tails, over db and dy
// carrying the plane operand's specials (db too, so a −0 accumulator meets
// the all −0 row's +0 sum).
func TestBiasGradMatchesOneChain(t *testing.T) {
	r := frand.New(88)
	for _, on := range []bool{false, true} {
		vectest.SetLive(t, on)
		for ch := 1; ch <= planeSumPlanes; ch++ {
			for _, n := range []int{1, 2, 3} {
				for _, cols := range []int{1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 63, 64, 65} {
					dy := planeOperand(r, n*ch, cols)
					db := sweepOperand(r, ch, 1)
					db[ch-1] = negZero
					want := slices.Clone(db)
					for c := range want {
						for i := 0; i < n; i++ {
							want[c] = sumFirst(want[c], oneChain(dy[(i*ch+c)*cols:][:cols], nil))
						}
					}
					foldBiasGrad(db, dy, ch*cols, n, cols)
					vectest.NaNClassEqual(t, fmt.Sprintf("vec=%v %d channels × %d samples of %d", on, ch, n, cols), db, want)
				}
			}
		}
	}
}

// TestVecRowSweepsStayInsideSlices: the squeeze-excite rescale and the
// residual sum on operands that end at an inaccessible page, at every length
// through the 32- and 8-wide blocks and the masked tail; and the plane sums —
// mean, dot and the bias gradient's accumulating form — on planes and outputs
// that end there, at plane counts through one group, a pair of groups and a
// last group of fewer than eight, and plane lengths through the four-column
// blocks and their tails.
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
			tensor.Add(out, guarded(a), guarded(b))
			want[i] = out
		}
		exactSlice(t, fmt.Sprintf("guarded residual sum n=%d", n), want[1], want[0])
	}
	for _, planes := range []int{8, 9, 15, 16, 17, 23, 24, 31, 32, 33} {
		for _, hw := range []int{1, 2, 3, 4, 5, 7, 9, 64} {
			a, b := sweepOperand(r, planes*hw, 1), sweepOperand(r, planes*hw, 1)
			acc := sweepOperand(r, planes, 1)
			var want [2][3][]float32
			for i, on := range []bool{false, true} {
				vectest.SetLive(t, on)
				mean, dot, db := guarded(make([]float32, planes)), guarded(make([]float32, planes)), guarded(acc)
				planeMean(mean, guarded(a), hw)
				planeSums(dot, guarded(a), guarded(b), hw, false)
				foldBiasGrad(db, guarded(a), planes*hw, 1, hw)
				want[i] = [3][]float32{mean, dot, db}
			}
			for k, form := range []string{"mean", "dot", "bias gradient"} {
				vectest.NaNClassEqual(t, fmt.Sprintf("guarded plane %s %d planes of %d", form, planes, hw), want[1][k], want[0][k])
			}
		}
	}
}

// bnSumDot calls vec.BNSumDot with every per-channel constant taken from c.
func bnSumDot(sum, dot []float64, dz, dy, x []float32, stride, rows, n int, c []float32, act vec.Act) {
	vec.BNSumDot(sum, dot, dz, dy, x, stride, rows, n, c, c, c, c, act)
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
		{"bias y", func() { vec.BiasAct(f(3*9-1), 3, 9, f(3), vec.ActIdentity) }},
		{"bias bias", func() { vec.BiasAct(f(3*9), 3, 9, f(2), vec.ActHardSwish) }},
		{"bias relu", func() { vec.BiasAct(f(3*9), 3, 9, f(2), vec.ActReLU) }},
		{"bn normalise out", func() { vec.BNNormalize(f(2*20+9-1), f(2*20+9), 20, 3, 9, 0, 1, 1, 0, vec.ActHardSwish) }},
		{"bn normalise x", func() { vec.BNNormalize(f(2*20+9), f(2*20+9-1), 20, 3, 9, 0, 1, 1, 0, vec.ActReLU) }},
		{"bn normalise stride", func() { vec.BNNormalize(f(64), f(64), 8, 3, 9, 0, 1, 1, 0, vec.ActIdentity) }},
		{"bn grad dx", func() { vec.BNGradX(f(2*20+9-1), f(2*20+9), f(2*20+9), 20, 3, 9, 0, 1, 1, 1, 27, 0, 0) }},
		{"bn grad dz", func() { vec.BNGradX(f(2*20+9), f(2*20+9-1), f(2*20+9), 20, 3, 9, 0, 1, 1, 1, 27, 0, 0) }},
		{"bn grad x", func() { vec.BNGradX(f(2*20+9), f(2*20+9), f(2*20+9-1), 20, 3, 9, 0, 1, 1, 1, 27, 0, 0) }},
		{"bn sums x", func() { vec.BNSumSq(d(8), d(8), f(2*50+8*5-1), 50, 3, 5) }},
		{"bn sums sum", func() { vec.BNSumSq(d(7), d(8), f(2*50+8*5), 50, 3, 5) }},
		{"bn sums sq", func() { vec.BNSumSq(d(8), d(7), f(2*50+8*5), 50, 3, 5) }},
		{"bn sums stride", func() { vec.BNSumSq(d(8), d(8), f(200), 39, 3, 5) }},
		{"bn grad sums dz", func() { bnSumDot(d(8), d(8), f(2*50+8*5-1), f(2*50+8*5), f(2*50+8*5), 50, 3, 5, f(8), vec.ActReLU) }},
		{"bn grad sums dy", func() { bnSumDot(d(8), d(8), f(2*50+8*5), f(2*50+8*5-1), f(2*50+8*5), 50, 3, 5, f(8), vec.ActIdentity) }},
		{"bn grad sums x", func() { bnSumDot(d(8), d(8), nil, f(2*50+8*5), f(2*50+8*5-1), 50, 3, 5, f(8), vec.ActIdentity) }},
		{"bn grad sums dot", func() { bnSumDot(d(8), d(7), nil, f(2*50+8*5), f(2*50+8*5), 50, 3, 5, f(8), vec.ActIdentity) }},
		{"bn grad sums stride", func() { bnSumDot(d(8), d(8), nil, f(200), f(200), 39, 3, 5, f(8), vec.ActIdentity) }},
		{"bn grad sums channels", func() { bnSumDot(d(8), d(8), nil, f(2*50+8*5), f(2*50+8*5), 50, 3, 5, f(7), vec.ActHardSwish) }},
		{"bn grad sums empty", func() { bnSumDot(d(8), d(7), nil, nil, nil, 50, 0, 5, nil, vec.ActHardSwish) }},
		{"plane sums planes", func() { vec.PlaneSums(f(7), f(7*5), nil, 7, 5, false) }},
		{"plane sums out", func() { vec.PlaneSums(f(8), f(9*5), nil, 9, 5, true) }},
		{"plane sums a", func() { vec.PlaneSums(f(9), f(9*5-1), nil, 9, 5, false) }},
		{"plane sums b", func() { vec.PlaneSums(f(9), f(9*5), f(9*5-1), 9, 5, false) }},
		{"plane sums empty out", func() { vec.PlaneSums(f(8), nil, nil, 9, 0, true) }},
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
	vec.BiasAct(nil, 0, 9, nil, vec.ActHardSwish)
	vec.BiasAct(nil, 3, 0, nil, vec.ActReLU)
	vec.BNNormalize(nil, nil, 4, 0, 4, 0, 1, 1, 0, vec.ActHardSwish)
	vec.BNGradX(nil, nil, nil, 4, 2, 0, 0, 1, 1, 1, 8, 0, 0)
	vec.PlaneSums(nil, nil, nil, 0, 5, true)
	// Planes of no elements still define their sums: +0, stored or added.
	empty := []float32{negZero, 1, negZero, 2, negZero, 3, negZero, 4}
	vec.PlaneSums(empty, nil, nil, 8, 0, true)
	for i, v := range []float32{0, 1, 0, 2, 0, 3, 0, 4} {
		if math.Float32bits(empty[i]) != math.Float32bits(v) {
			t.Fatalf("plane sums of no elements left out[%d] = %v, want %v", i, empty[i], v)
		}
	}
	// An empty reduction still defines its sixteen sums: +0.
	sum, dot := []float64{1, 2, 3, 4, 5, 6, 7, 8}, []float64{1, 2, 3, 4, 5, 6, 7, 8}
	vec.BNSumSq(sum, dot, nil, 40, 0, 5)
	bnSumDot(sum[:8], dot, nil, nil, nil, 40, 3, 0, nil, vec.ActHardSwish)
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
// block took the frozen op's kernels (planeMean, scaleRows), planeSums and
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
	u := l.fc2.Forward(l.relu.Forward(l.fc1.Forward(s, train), train), train)
	z := tensor.New(n, c)
	for i, v := range u.Data() {
		z.Data()[i] = tensor.HardSigmoid(v)
	}
	l.u, l.z = u, z
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
	du := tensor.New(n, c)
	for i, v := range l.u.Data() {
		if v > -3 && v < 3 {
			du.Data()[i] = dzd[i] / 6
		}
	}
	ds := l.fc1.Backward(l.relu.Backward(l.fc2.Backward(du)))
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
