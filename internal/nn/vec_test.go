package nn

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	_ "unsafe" // for go:linkname

	"heteroswitch/internal/frand"
	"heteroswitch/internal/tensor"
)

// The vector sweeps promise the Go loops' bits, not a tolerance. The tests
// compare math.Float32bits between the two settings of the unexported
// switches — this package's vecLive and tensor's, which a layer's kernels sit
// behind; tensor exports no hook, so the test binary links to its variable.
//
//go:linkname tensorVecLive heteroswitch/internal/tensor.vecLive
var tensorVecLive bool

// setVecLive pins both switches for one test (on only where the build and
// CPU have the kernels) and restores them afterwards.
func setVecLive(t testing.TB, on bool) {
	t.Helper()
	prevNN, prevTensor := vecLive, tensorVecLive
	vecLive, tensorVecLive = on && vecAvailable, on && vecAvailable
	t.Cleanup(func() { vecLive, tensorVecLive = prevNN, prevTensor })
}

// bothVecSettings runs f as a subtest under the Go loops and, where the
// vector kernels exist, under them too.
func bothVecSettings(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	for _, on := range []bool{false, true} {
		if on && !vecAvailable {
			continue
		}
		t.Run(fmt.Sprintf("vec=%v", on), func(t *testing.T) {
			setVecLive(t, on)
			f(t)
		})
	}
}

// benchVecArms runs f as the "default" sub-benchmark and, where the vector
// kernels exist, again as "generic" on the Go loops.
func benchVecArms(b *testing.B, f func(b *testing.B)) {
	b.Run("default", f)
	if vecAvailable {
		b.Run("generic", func(b *testing.B) {
			setVecLive(b, false)
			f(b)
		})
	}
}

func requireVec(t testing.TB) {
	t.Helper()
	if !vecAvailable {
		t.Skip("no vector kernels in this build or on this CPU")
	}
}

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
// (bias, bias + hard-swish) and the rows × n training bias add of a
// pointwise Conv2D.
func runVecActCase(t *testing.T, n, rows int, seed uint64) {
	t.Helper()
	r := frand.New(seed)
	x := sweepOperand(r, n, 2)
	dy := sweepOperand(r, n, 1)
	bias := []float32{0.7, -1.3, float32(math.Copysign(0, -1))}
	conv := NewConv2D(r, 1, rows, 1, 1, 0, 1)
	for i := range conv.B.W.Data() {
		conv.B.W.Data()[i] = bias[i%len(bias)]
	}
	run := func(on bool) [][]float32 {
		setVecLive(t, on)
		l := NewHardSwish()
		xt := tensor.FromSlice(slices.Clone(x), 1, n)
		y := slices.Clone(l.Forward(xt, true).Data())
		dx := slices.Clone(l.Backward(tensor.FromSlice(slices.Clone(dy), 1, n)).Data())
		act := make([]float32, n)
		applyAct(act, x, 0, n, epHardSwish)
		planes := slices.Clone(conv.Forward(tensor.FromSlice(slices.Clone(x), 1, 1, 1, n), true).Data())
		res := [][]float32{y, dx, act, planes}
		for _, a := range []epAct{epNone, epHardSwish} {
			for i := range bias {
				row := slices.Clone(x)
				applyBiasAct(row, bias[i:], a)
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
	requireVec(t)
	for i, n := range vecSweepLens {
		runVecActCase(t, n, 1+i%4, uint64(811+i))
	}
}

// vecBNPlanes are plane sizes around the lane edge.
var vecBNPlanes = [][2]int{{1, 1}, {1, 7}, {2, 4}, {3, 3}, {5, 5}, {4, 8}, {7, 9}, {16, 16}}

// runVecBNCase runs the training forward (xhat, out, running statistics) and
// backward (dx, dγ, dβ) of BatchNorm2D on an [n, c, h, w] batch under both
// settings. The float64 reductions stay in Go; the elementwise passes, which
// walk n planes of h·w elements c·h·w apart, are the vectorised ones.
func runVecBNCase(t *testing.T, n, c, h, w int, seed uint64) {
	t.Helper()
	r := frand.New(seed)
	size := n * c * h * w
	x := tensor.Randn(r, 1.5, size).Data()
	dy := tensor.Randn(r, 1, size).Data()
	x[0], dy[size-1] = float32(math.Copysign(0, -1)), 1e-39
	x[size/2], dy[size/3] = -1e-41, 0
	gamma := []float32{1.25, -0.5, 0, 3}[:c]
	beta := []float32{0.1, -2, 3, 1e-39}[:c]
	run := func(on bool) [][]float32 {
		setVecLive(t, on)
		l := NewBatchNorm2D(c)
		l.Gamma.W.CopyFrom(tensor.FromSlice(gamma, c))
		l.Beta.W.CopyFrom(tensor.FromSlice(beta, c))
		out := l.Forward(tensor.FromSlice(slices.Clone(x), n, c, h, w), true)
		dx := l.Backward(tensor.FromSlice(slices.Clone(dy), n, c, h, w))
		return [][]float32{
			slices.Clone(out.Data()), slices.Clone(l.xhat.Data()), slices.Clone(dx.Data()),
			slices.Clone(l.RunMean.Data()), slices.Clone(l.RunVar.Data()),
			slices.Clone(l.Gamma.Grad.Data()), slices.Clone(l.Beta.Grad.Data()),
		}
	}
	want, got := run(false), run(true)
	for i, what := range []string{"out", "xhat", "dx", "runMean", "runVar", "dGamma", "dBeta"} {
		exactSlice(t, fmt.Sprintf("bn n=%d c=%d %dx%d seed %d %s", n, c, h, w, seed, what), got[i], want[i])
	}
}

// TestVecBatchNormMatchesGeneric: runVecBNCase on the plane table at batch 1
// and 3.
func TestVecBatchNormMatchesGeneric(t *testing.T) {
	requireVec(t)
	for i, hw := range vecBNPlanes {
		for _, n := range []int{1, 3} {
			runVecBNCase(t, n, 3, hw[0], hw[1], uint64(812+i))
		}
	}
}

// FuzzVecSweepsMatchGeneric is ROADMAP hardening item (b) for this package's
// vector sweeps (hardSwishVec, hardSwishGradVec, biasActVec, bnNormalizeVec,
// bnGradXVec): random lengths, row counts, plane strides and seeds through
// the routines and the layers' Go loops at tol 0, seeded with the two
// block-edge tables above.
func FuzzVecSweepsMatchGeneric(f *testing.F) {
	for i, n := range vecSweepLens {
		f.Add(uint16(n), uint8(i), uint8(2), uint64(811+i))
	}
	for i, hw := range vecBNPlanes {
		f.Add(uint16(hw[0]*hw[1]), uint8(i), uint8(i), uint64(812+i))
	}
	f.Fuzz(func(t *testing.T, n uint16, rows, chans uint8, seed uint64) {
		requireVec(t)
		length, batch, c := int(n%300)+1, int(rows%4)+1, int(chans%4)+1
		runVecActCase(t, length, batch, seed)
		runVecBNCase(t, batch, c, 1, length, seed)
	})
}

// vecTrainNet has one layer of every vectorised kind — stem, pointwise and
// depthwise convs (stride 1 and 2), batch norm, hard-swish, squeeze-excite,
// a residual, dense — in TinyMobileNetV3's arrangement.
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
		NewDepthwiseConv2D(r, 8, 3, 2, 1), NewBatchNorm2D(8), NewHardSwish(),
		NewGlobalAvgPool(),
		NewDense(r, 8, 5),
	)
}

// TestVecTrainingMatchesGeneric trains the same network for a few SGD steps
// under both settings, at intra-op 1 and 3, and requires identical weights,
// running statistics, and frozen-forward logits.
func TestVecTrainingMatchesGeneric(t *testing.T) {
	requireVec(t)
	run := func(on bool, par int) ([][]float32, []float32) {
		setVecLive(t, on)
		net := vecTrainNet(frand.New(31))
		net.SetIntraOp(par)
		r := frand.New(32)
		opt := NewSGD(0.05, 0.9, 1e-4)
		for step := 0; step < 3; step++ {
			x := tensor.Randn(r, 1, 4, 3, 18, 14)
			out := net.Forward(x, true)
			_, g := SoftmaxCrossEntropy{}.Eval(out, ClassTarget([]int{0, 1, 2, 3}))
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
	for _, par := range []int{1, 3} {
		wantW, wantL := run(false, par)
		gotW, gotL := run(true, par)
		for i := range wantW {
			exactSlice(t, fmt.Sprintf("par %d weights %d", par, i), gotW[i], wantW[i])
		}
		exactSlice(t, fmt.Sprintf("par %d frozen logits", par), gotL, wantL)
	}
}

// TestVecSweepsRejectShortSlices: every wrapper panics on a slice shorter
// than the extent its routine touches, and returns on an empty extent
// without touching anything. The wrappers are shared code, so this runs in
// every build.
func TestVecSweepsRejectShortSlices(t *testing.T) {
	f := func(n int) []float32 { return make([]float32, n) }
	for _, tc := range []struct {
		name string
		call func()
	}{
		{"hard-swish y", func() { hardSwishVec(f(8), f(9)) }},
		{"hard-swish grad dx", func() { hardSwishGradVec(f(8), f(9), f(9)) }},
		{"hard-swish grad dy", func() { hardSwishGradVec(f(9), f(8), f(9)) }},
		{"bias y", func() { biasActVec(f(3*9-1), 3, 9, f(3), false) }},
		{"bias bias", func() { biasActVec(f(3*9), 3, 9, f(2), true) }},
		{"bn normalise out", func() { bnNormalizeVec(f(2*20+9-1), f(2*20+9), f(2*20+9), 20, 3, 9, 0, 1, 1, 0) }},
		{"bn normalise xhat", func() { bnNormalizeVec(f(2*20+9), f(2*20+9-1), f(2*20+9), 20, 3, 9, 0, 1, 1, 0) }},
		{"bn normalise x", func() { bnNormalizeVec(f(2*20+9), f(2*20+9), f(2*20+9-1), 20, 3, 9, 0, 1, 1, 0) }},
		{"bn normalise stride", func() { bnNormalizeVec(f(64), f(64), f(64), 8, 3, 9, 0, 1, 1, 0) }},
		{"bn grad dx", func() { bnGradXVec(f(2*20+9-1), f(2*20+9), f(2*20+9), 20, 3, 9, 1, 1, 27, 0, 0) }},
		{"bn grad dy", func() { bnGradXVec(f(2*20+9), f(2*20+9-1), f(2*20+9), 20, 3, 9, 1, 1, 27, 0, 0) }},
		{"bn grad xhat", func() { bnGradXVec(f(2*20+9), f(2*20+9), f(2*20+9-1), 20, 3, 9, 1, 1, 27, 0, 0) }},
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
	hardSwishVec(nil, nil)
	hardSwishGradVec(nil, nil, nil)
	biasActVec(nil, 0, 9, nil, true)
	biasActVec(nil, 3, 0, nil, false)
	bnNormalizeVec(nil, nil, nil, 4, 0, 4, 0, 1, 1, 0)
	bnGradXVec(nil, nil, nil, 4, 2, 0, 1, 1, 8, 0, 0)
}

// TestFrozenAutoIsSerialWhenVectorLive: with the vector kernels live, auto
// stays on the oracle tier, so a frozen network whose fused matmul is deeper
// than the packed kernel's k-block (SimpleCNN's 768-wide dense — the one
// place packed and oracle differ in bits) now infers exactly what
// -kernel-backend serial infers.
func TestFrozenAutoIsSerialWhenVectorLive(t *testing.T) {
	requireVec(t)
	setVecLive(t, true)
	r := frand.New(51)
	net := NewNetwork(NewFlatten(), NewDense(r, 768, 64), NewReLU(), NewDense(r, 64, 12))
	x := tensor.Randn(r, 1, 16, 3, 16, 16)
	infer := func(b tensor.Backend) []float32 {
		forceNNBackend(t, b)
		return slices.Clone(net.Freeze().Infer(x).Data())
	}
	exactSlice(t, "frozen auto vs serial", infer(tensor.BackendAuto), infer(tensor.BackendSerial))
}
