package tensor

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"heteroswitch/internal/frand"
	"heteroswitch/internal/vec"
)

// The vector oracle kernels promise BIT-identical results to the Go loops —
// not a tolerance. Everything here compares math.Float32bits between the two
// settings of vec.Live, the switch only tests flip.

// haveVec is the probe's answer, read before any test flips the switch.
var haveVec = vec.Live

// setVecLive pins the switch for one test (on only where the build and CPU
// have the kernels) and restores it afterwards.
func setVecLive(t testing.TB, on bool) {
	t.Helper()
	prev := vec.Live
	vec.Live = on && haveVec
	t.Cleanup(func() { vec.Live = prev })
}

// bothVecSettings runs f as a subtest under the Go loops and, where the
// vector kernels exist, under them too.
func bothVecSettings(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	for _, on := range []bool{false, true} {
		if on && !haveVec {
			continue
		}
		t.Run(fmt.Sprintf("vec=%v", on), func(t *testing.T) {
			setVecLive(t, on)
			f(t)
		})
	}
}

// benchVecArms runs f as the "default" sub-benchmark and, where the vector
// kernels exist, again as "generic" on the Go loops, so every kernel's
// speed-up is a recorded pair of rows.
func benchVecArms(b *testing.B, f func(b *testing.B)) {
	b.Run("default", f)
	if haveVec {
		b.Run("generic", func(b *testing.B) {
			setVecLive(b, false)
			f(b)
		})
	}
}

// requireVec skips a test that needs both implementations to compare.
func requireVec(t testing.TB) {
	t.Helper()
	if !haveVec {
		t.Skip("no vector kernels in this build or on this CPU")
	}
}

// vecSpecials are the values the zero-skip and rounding contracts turn on:
// exact zeros of both signs, denormals, and magnitudes whose products round.
var vecSpecials = []float32{
	0, float32(math.Copysign(0, -1)),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-39, -3e-41,
	1, -1, 0.1, -0.3, 3.1415927, 1e-20, -1e20, 16777217,
}

// vecOperand fills n values from r, replacing about one in four with a
// special so every run mixes zeros, −0 and denormals into ordinary data.
func vecOperand(r *frand.RNG, n int) []float32 { return operandWith(r, n, vecSpecials) }

// operandWith is vecOperand over a caller-chosen list of specials.
func operandWith(r *frand.RNG, n int, specials []float32) []float32 {
	v := Randn(r, 1, n).Data()
	for i := range v {
		if r.Intn(4) == 0 {
			v[i] = specials[r.Intn(len(specials))]
		}
	}
	return v
}

// vecCase is one differential shape; the fuzz target draws the same fields.
type vecCase struct{ m, k, n int }

// vecTable is the issue's sweep: n around the 8- and 32-lane block edges,
// k across 0, 1, the mmBlock edge and beyond, a few row counts.
func vecTable() []vecCase {
	var cs []vecCase
	for _, n := range []int{1, 7, 8, 9, 31, 32, 33, 40, 256} {
		for _, k := range []int{0, 1, 27, 64, 65, 300} {
			for _, m := range []int{1, 2, 9} {
				cs = append(cs, vecCase{m, k, n})
			}
		}
	}
	return cs
}

// runVecCase computes every oracle kernel on one shape under both settings of
// the switch and requires identical bits: a@b (+acc), aᵀ@b over the full row
// range and a sub-range, a@bᵀ (store and accumulate).
func runVecCase(t *testing.T, c vecCase, seed uint64) {
	t.Helper()
	r := frand.New(seed)
	m, k, n := c.m, c.k, c.n
	name := fmt.Sprintf("%dx%dx%d seed %d", m, k, n, seed)
	a := vecOperand(r, m*k)  // [m,k]
	at := vecOperand(r, k*m) // [k,m], read transposed
	b := vecOperand(r, k*n)  // [k,n]
	bt := vecOperand(r, n*k) // [n,k], read transposed
	base := vecOperand(r, m*n)
	i0, i1 := m/3, m-m/4 // a proper sub-range once m ≥ 4, else the whole

	run := func(on bool) [][]float32 {
		setVecLive(t, on)
		acc := slices.Clone(base)
		matmulAcc(acc, a, b, m, k, n)
		ta := slices.Clone(base)
		matMulTransAAccRange(ta, at, b, k, m, n, 0, m)
		tr := slices.Clone(base)
		matMulTransAAccRange(tr, at, b, k, m, n, i0, i1)
		tb := slices.Clone(base)
		matMulTransB(tb, a, bt, m, k, n, false)
		tbAcc := slices.Clone(base)
		matMulTransB(tbAcc, a, bt, m, k, n, true)
		return [][]float32{acc, ta, tr, tb, tbAcc}
	}
	want, got := run(false), run(true)
	for i, kernel := range []string{"matmulAcc", "transA", "transA range", "transB", "transB acc"} {
		exactEqual(t, name+" "+kernel, got[i], want[i])
	}
}

func TestVecMatchesGeneric(t *testing.T) {
	requireVec(t)
	for i, c := range vecTable() {
		runVecCase(t, c, uint64(1000+i))
	}
}

// TestVecZeroSkipParity: a == ±0 must skip its term in both implementations
// even against b = ±Inf or NaN (the product would be NaN), and a NaN in a
// must NOT be skipped.
func TestVecZeroSkipParity(t *testing.T) {
	requireVec(t)
	inf := float32(math.Inf(1))
	nan := float32(math.NaN())
	negZero := float32(math.Copysign(0, -1))
	for _, n := range []int{1, 7, 8, 33, 40} {
		const m, k = 3, 5
		a := make([]float32, m*k)
		b := make([]float32, k*n)
		for i := range a {
			a[i] = float32(i%7) - 2.5
		}
		for i := range b {
			b[i] = float32(i%5) - 1.5
		}
		// Row 0: zeros of both signs opposite non-finite b rows.
		a[1], a[3] = 0, negZero
		for j := 0; j < n; j++ {
			b[1*n+j] = []float32{inf, -inf, nan}[j%3]
			b[3*n+j] = nan
		}
		// Row 2: one NaN in a, which must poison the whole output row.
		a[2*k+2] = nan
		base := make([]float32, m*n)
		run := func(on bool) []float32 {
			setVecLive(t, on)
			out := slices.Clone(base)
			matmulAcc(out, a, b, m, k, n)
			return out
		}
		want, got := run(false), run(true)
		exactEqual(t, fmt.Sprintf("zero-skip n=%d", n), got, want)
		for j := 0; j < n; j++ {
			if v := got[j]; v != v || math.IsInf(float64(v), 0) {
				t.Fatalf("n=%d: row 0 col %d = %v, the ±0 terms were not skipped", n, j, v)
			}
			if v := got[2*n+j]; v == v {
				t.Fatalf("n=%d: row 2 col %d = %v, the NaN term was skipped", n, j, v)
			}
		}
	}
}

// FuzzVecMatchesGeneric is ROADMAP hardening item (b) for the oracle tier:
// random shapes and seeds through both implementations at tol 0, seeded with
// the table above.
func FuzzVecMatchesGeneric(f *testing.F) {
	for i, c := range vecTable() {
		f.Add(uint16(c.m), uint16(c.k), uint16(c.n), uint64(i))
	}
	f.Fuzz(func(t *testing.T, m, k, n uint16, seed uint64) {
		requireVec(t)
		c := vecCase{int(m%12) + 1, int(k % 320), int(n%300) + 1}
		runVecCase(t, c, seed)
	})
}

// runVecPlaneCase runs the three depthwise plane kernels on one geometry
// under both settings of the switch and requires identical bits. The forward
// overwrites junk; both gradients accumulate onto it.
func runVecPlaneCase(t *testing.T, h, w, k, stride, pad int, seed uint64) {
	t.Helper()
	d, err := NewConvDims(1, h, w, k, k, stride, pad)
	if err != nil {
		return // kernel larger than the padded plane
	}
	r := frand.New(seed)
	taps, cols := d.ColRows(), d.ColCols()
	img, wt, dy := vecOperand(r, h*w), vecOperand(r, taps), vecOperand(r, cols)
	junkY, junkW, junkX := vecOperand(r, cols), vecOperand(r, taps), vecOperand(r, h*w)
	run := func(on bool) [][]float32 {
		setVecLive(t, on)
		y, dw, dx := slices.Clone(junkY), slices.Clone(junkW), slices.Clone(junkX)
		DepthwiseConvPlane(y, img, wt, d)
		DepthwiseConvPlaneGradW(dw, dy, img, d)
		DepthwiseConvPlaneGradX(dx, dy, wt, d)
		return [][]float32{y, dw, dx}
	}
	want, got := run(false), run(true)
	for i, kernel := range []string{"forward", "dW", "dx"} {
		exactEqual(t, fmt.Sprintf("plane %dx%d k%d s%d p%d seed %d %s", h, w, k, stride, pad, seed, kernel), got[i], want[i])
	}
	tapOuter := slices.Clone(junkW)
	refDepthwiseGradW(tapOuter, dy, img, d)
	exactEqual(t, fmt.Sprintf("plane %dx%d k%d s%d p%d seed %d dW vs tap-outer", h, w, k, stride, pad, seed), got[1], tapOuter)
}

// FuzzVecPlanesMatchGeneric is FuzzVecMatchesGeneric's sibling for the
// depthwise plane kernels (DepthwiseConvPlane, …GradW, …GradX) and the routines
// under them (vec.AxpyPlane, vec.AxpyGather2, vec.AxpyScatter2, vec.GradW3x3):
// random plane sizes, kernels, strides, pads and seeds at tol 0 — dW against
// the tap-outer oracle too — seeded with the lowered sweep's geometries
// (depthwise_test.go) and the block-edge widths of both strides.
func FuzzVecPlanesMatchGeneric(f *testing.F) {
	for i, hw := range [][2]int{{7, 11}, {9, 5}, {13, 10}, {1, 1}, {2, 3}} {
		for _, k := range []int{1, 3, 5} {
			for _, stride := range []int{1, 2} {
				for _, pad := range []int{0, 1, 2} {
					f.Add(uint8(hw[0]), uint8(hw[1]), uint8(k), uint8(stride), uint8(pad), uint64(i))
				}
			}
		}
	}
	for i, w := range []int{1, 6, 7, 8, 9, 15, 16, 31, 32, 33, 40, 70} {
		f.Add(uint8(1+i%5), uint8(w), uint8(3), uint8(1), uint8(1), uint64(77+i))
	}
	// Stride 2 around the eight-output block of the de-interleaving taps (odd
	// and even widths), and the 3×3 weight gradient's margins at every pad.
	for i, w := range []int{2, 3, 13, 14, 15, 16, 17, 18, 29, 31, 32, 33, 34, 35, 63, 65} {
		f.Add(uint8(2+i%6), uint8(w), uint8(3), uint8(2), uint8(i%3), uint64(91+i))
	}
	f.Fuzz(func(t *testing.T, h, w, k, stride, pad uint8, seed uint64) {
		requireVec(t)
		runVecPlaneCase(t, int(h%24)+1, int(w%80)+1, int(k%6)+1, int(stride%3)+1, int(pad%4), seed)
	})
}

// TestVecPlaneAxpyMatchesGeneric drives the strided 2-D tap kernel directly
// against the scalar row loop it replaces.
func TestVecPlaneAxpyMatchesGeneric(t *testing.T) {
	requireVec(t)
	r := frand.New(77)
	for _, n := range []int{1, 6, 7, 8, 9, 15, 16, 31, 32, 33, 40, 70} {
		for _, rows := range []int{1, 2, 5} {
			dstStride, srcStride := n+3, 2*n+1
			dst := vecOperand(r, rows*dstStride)
			src := vecOperand(r, rows*srcStride)
			for _, w := range []float32{1.5, -0.3, 1e-30} {
				want := slices.Clone(dst)
				for y := 0; y < rows; y++ {
					for j := 0; j < n; j++ {
						want[y*dstStride+j] += w * src[y*srcStride+j]
					}
				}
				got := slices.Clone(dst)
				vec.AxpyPlane(got, dstStride, src, srcStride, w, rows, n)
				exactEqual(t, fmt.Sprintf("plane axpy %dx%d w=%g", rows, n, w), got, want)
			}
		}
	}
}

// TestVecStride2TapsMatchGeneric drives the de-interleaving tap kernels
// directly against the scalar row loops they replace, on slices that END at
// the last element a row loop touches (2(n−1) past the row start, never the
// odd element after it). The scatter's odd elements — between and beside its
// targets — hold −0, NaN and denormals and must keep their bits.
func TestVecStride2TapsMatchGeneric(t *testing.T) {
	requireVec(t)
	r := frand.New(78)
	odd := []float32{float32(math.Copysign(0, -1)), float32(math.NaN()), -1e-41, 0}
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 23, 24, 25, 40} {
		for _, rows := range []int{1, 2, 5} {
			narrow, wide := n+3, 2*n+4
			for _, w := range []float32{1.5, -0.3, 1e-30} {
				// gather: y[j] += w·img[2j]
				src := vecOperand(r, (rows-1)*wide+2*n-1)
				dst := vecOperand(r, (rows-1)*narrow+n)
				want := slices.Clone(dst)
				for y := 0; y < rows; y++ {
					for j := 0; j < n; j++ {
						want[y*narrow+j] += w * src[y*wide+2*j]
					}
				}
				got := slices.Clone(dst)
				vec.AxpyGather2(got, narrow, src, wide, w, rows, n)
				exactEqual(t, fmt.Sprintf("gather %dx%d w=%g", rows, n, w), got, want)

				// scatter: dimg[2j] += w·dy[j]
				src = vecOperand(r, (rows-1)*narrow+n)
				dst = vecOperand(r, (rows-1)*wide+2*n-1)
				for i := range dst {
					if i%wide%2 == 1 || i%wide >= 2*n-1 {
						dst[i] = odd[i%len(odd)]
					}
				}
				dst[0] = float32(math.Copysign(0, -1)) // a target holding −0
				want = slices.Clone(dst)
				for y := 0; y < rows; y++ {
					for j := 0; j < n; j++ {
						want[y*wide+2*j] += w * src[y*narrow+j]
					}
				}
				got = slices.Clone(dst)
				vec.AxpyScatter2(got, wide, src, narrow, w, rows, n)
				exactEqual(t, fmt.Sprintf("scatter %dx%d w=%g", rows, n, w), got, want)
			}
		}
	}
}

// gradW3x3 hands d's geometry to vec.GradW3x3.
func gradW3x3(dw, dy, img []float32, d ConvDims) {
	vec.GradW3x3(dw, dy, img, d.OutH, d.OutW, d.InH, d.InW, d.StrideH, d.StrideW, d.PadH, d.PadW)
}

// TestVecKernelsRejectShortSlices: the Go loops panic on an undersized slice
// through their bounds checks; the assembly would write past it, so every
// wrapper must panic before it takes a pointer. The wrappers are shared code,
// so this runs in every build.
func TestVecKernelsRejectShortSlices(t *testing.T) {
	const m, k, n = 3, 5, 9
	full := func(sz int) []float32 { return make([]float32, sz) }
	plane3x3, err := NewConvDims(1, 6, 7, 3, 3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		call func()
	}{
		{"gemm out", func() { vec.GemmAcc(full(m*n-1), n, full(m*k), k, 1, full(k*n), n, m, n, k) }},
		{"gemm a", func() { vec.GemmAcc(full(m*n), n, full(m*k-1), k, 1, full(k*n), n, m, n, k) }},
		{"gemm b", func() { vec.GemmAcc(full(m*n), n, full(m*k), k, 1, full(k*n-1), n, m, n, k) }},
		{"gemm a transposed", func() { vec.GemmAcc(full(m*n), n, full(k*m-1), 1, m, full(k*n), n, m, n, k) }},
		{"gemm stride", func() { vec.GemmAcc(full(m*n), n, full(m*k), 0, 1, full(k*n), n, m, n, k) }},
		{"plane dst", func() { vec.AxpyPlane(full(2*12+n-1), 12, full(2*20+n), 20, 1, 3, n) }},
		{"plane src", func() { vec.AxpyPlane(full(2*12+n), 12, full(2*20+n-1), 20, 1, 3, n) }},
		{"transB out", func() { vec.DotTransB(full(m*n-1), full(m*k), full(n*k), m, k, n, false) }},
		{"transB a", func() { vec.DotTransB(full(m*n), full(m*k-1), full(n*k), m, k, n, false) }},
		{"transB b", func() { vec.DotTransB(full(m*n), full(m*k), full(n*k-1), m, k, n, true) }},
		{"gather dst", func() { vec.AxpyGather2(full(2*12+n-1), 12, full(2*20+2*n-1), 20, 1, 3, n) }},
		{"gather src", func() { vec.AxpyGather2(full(2*12+n), 12, full(2*20+2*n-2), 20, 1, 3, n) }},
		{"gather src stride", func() { vec.AxpyGather2(full(2*12+n), 12, full(80), 2*n-2, 1, 3, n) }},
		{"scatter dst", func() { vec.AxpyScatter2(full(2*20+2*n-2), 20, full(2*12+n), 12, 1, 3, n) }},
		{"scatter src", func() { vec.AxpyScatter2(full(2*20+2*n-1), 20, full(2*12+n-1), 12, 1, 3, n) }},
		{"scatter dst stride", func() { vec.AxpyScatter2(full(80), 2*n-2, full(2*12+n), 12, 1, 3, n) }},
		{"dW 3x3 dw", func() { gradW3x3(full(8), full(6*7), full(6*7), plane3x3) }},
		{"dW 3x3 dy", func() { gradW3x3(full(9), full(6*7-1), full(6*7), plane3x3) }},
		{"dW 3x3 img", func() { gradW3x3(full(9), full(6*7), full(6*7-1), plane3x3) }},
		{"fold dst", func() { FoldScaled(make([]float64, n-1), full(n), 1) }},
		{"squared distance b", func() { SqDist(0, full(n), full(n-1)) }},
		{"laned squared distance b", func() { SqDistLanes(0, full(n), full(n-1)) }},
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
	// A zero dimension returns before any slice is touched, nil included.
	vec.GemmAcc(nil, 4, nil, 1, 1, nil, 4, 0, 4, 3)
	vec.GemmAcc(nil, 4, nil, 1, 1, nil, 4, 2, 4, 0)
	vec.AxpyPlane(nil, 4, nil, 4, 1, 0, 4)
	vec.DotTransB(nil, nil, nil, 0, 3, 4, true)
	vec.AxpyGather2(nil, 4, nil, 8, 1, 0, 4)
	vec.AxpyScatter2(nil, 8, nil, 4, 1, 2, 0)
	gradW3x3(nil, nil, nil, ConvDims{KH: 3, KW: 3})
	FoldScaled(nil, nil, 1)
	if ss := SqDistLanes(2.5, nil, nil); ss != 2.5 {
		t.Fatalf("squared distance of nothing changed the incoming sum to %v", ss)
	}
}

// TestAutoStaysOnOracleWhenVectorLive: with the vector kernels live the
// oracle tier beats the packed float and int8 kernels on every frozen shape,
// so auto neither dispatches to them nor packs anything for them; forcing a
// backend behaves as before.
func TestAutoStaysOnOracleWhenVectorLive(t *testing.T) {
	requireVec(t)
	setVecLive(t, true)
	forceBackend(t, BackendAuto)
	for _, sz := range [][3]int{{16, 768, 256}, {48, 48, 256}, {1024, 1024, 1024}} {
		if usePacked(sz[0], sz[1], sz[2]) {
			t.Fatalf("auto dispatches %v to the packed kernel with the vector oracle live", sz)
		}
	}
	if f, q := needForms(false); f || q {
		t.Fatalf("auto asks for forms (float %v, int8 %v) with the vector oracle live", f, q)
	}
	// Fused auto output is then the serial backend's, bit for bit — including
	// k > packKC, where the packed kernel reassociates.
	r := frand.New(7)
	const m, k, n = 16, 768, 40
	a, b := Randn(r, 1, m*k).Data(), Randn(r, 1, k*n).Data()
	got, want := make([]float32, m*n), make([]float32, m*n)
	matMulEp(2, got, a, b, m, k, n, false, nil)
	SetBackend(BackendSerial)
	matMulEp(2, want, a, b, m, k, n, false, nil)
	exactEqual(t, "auto vs serial", got, want)

	SetBackend(BackendPacked)
	if !usePacked(16, 768, 256) {
		t.Fatal("a forced packed backend must still dispatch")
	}
	if f, _ := needForms(false); !f {
		t.Fatal("a forced packed backend must still pack float panels")
	}
	SetBackend(BackendInt8)
	if _, q := needForms(true); !q {
		t.Fatal("a forced int8 backend must still quantize")
	}
}

// The aggregation step's float64 sweeps ----------------------------------------

// foldSpecials adds what a poisoned client update carries to vecSpecials: NaNs
// of both signs and two payloads, both infinities, the float32 extremes.
var foldSpecials = append(slices.Clone(vecSpecials),
	float32(math.NaN()), math.Float32frombits(0xffc00001), float32(math.Inf(1)), float32(math.Inf(-1)),
	math.MaxFloat32, -math.MaxFloat32)

// foldAccSpecials are accumulator contents with a story: the −NaN that
// Inf − Inf leaves behind, a payload NaN, infinities, −0, a float64 denormal,
// a sum large enough that w·v is absorbed, one that overflows with it.
var foldAccSpecials = []float64{
	math.Float64frombits(0xfff8000000000000), math.Float64frombits(0x7ff8000000000123),
	math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 5e-324, -3e-310, 1e300, -math.MaxFloat64, math.MaxFloat64,
}

// foldWeights are fold weights w: zeros of both signs, ordinary, negative,
// tiny, huge (w·v overflows), and non-finite ones of both NaN signs.
var foldWeights = []float64{
	0, math.Copysign(0, -1), 1, 1.5, -0.3, 17, 5e-324, 1e-300, 1e300, -1e300, math.MaxFloat64,
	math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0xfff8000000000001),
}

// foldSrc fills n float32s from r, about one in four a foldSpecials value.
func foldSrc(r *frand.RNG, n int) []float32 { return operandWith(r, n, foldSpecials) }

// foldAcc fills n float64 sums from r, about one in four a foldAccSpecials value.
func foldAcc(r *frand.RNG, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = r.NormFloat64() * 100
		if r.Intn(4) == 0 {
			v[i] = foldAccSpecials[r.Intn(len(foldAccSpecials))]
		}
	}
	return v
}

func exactEqual64(t *testing.T, name string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) { // bits: tells NaN signs and payloads apart
			t.Fatalf("%s: element %d differs: %v (%#x) != %v (%#x) (must be bit-identical)",
				name, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// runVecFoldCase folds n elements at the given element offsets into their
// buffers — so the routine sees every 4- and 8-byte misalignment — three
// times over (w, then −w/3, then w again) under both settings of the switch,
// and requires the whole accumulator buffer, the elements around the window
// included, to come out bit-identical.
func runVecFoldCase(t *testing.T, n, dstOff, srcOff int, w float64, seed uint64) {
	t.Helper()
	r := frand.New(seed)
	src := foldSrc(r, srcOff+n+3)
	base := foldAcc(r, dstOff+n+3)
	run := func(on bool) []float64 {
		setVecLive(t, on)
		acc := slices.Clone(base)
		for _, wk := range []float64{w, -w / 3, w} {
			FoldScaled(acc[dstOff:dstOff+n], src[srcOff:srcOff+n], wk)
		}
		return acc
	}
	want, got := run(false), run(true)
	exactEqual64(t, fmt.Sprintf("fold n=%d offsets %d,%d w=%v seed %d", n, dstOff, srcOff, w, seed), got, want)
}

func TestVecFoldMatchesGeneric(t *testing.T) {
	requireVec(t)
	for n := 0; n <= 67; n++ {
		for off := 0; off < 4; off++ {
			for i, w := range foldWeights {
				runVecFoldCase(t, n, off, (3*off+1)%4, w, uint64(1000*n+10*i+off))
			}
		}
	}
}

// FuzzVecFoldMatchesGeneric: random lengths, misalignments, seeds and fold
// weights of any bit pattern through FoldScaled's two implementations at tol 0.
func FuzzVecFoldMatchesGeneric(f *testing.F) {
	for i, w := range foldWeights {
		f.Add(uint16(16*i+i), uint8(i), uint8(3*i), math.Float64bits(w), uint64(i))
	}
	f.Fuzz(func(t *testing.T, n uint16, dstOff, srcOff uint8, wbits, seed uint64) {
		requireVec(t)
		runVecFoldCase(t, int(n%300), int(dstOff%4), int(srcOff%4), math.Float64frombits(wbits), seed)
	})
}

// sqDistBound is the distance the guard of fl.updateValid allows between two
// summation orders of n squared differences, relative to either sum.
func sqDistBound(n int) float64 { return 2.01 * float64(n) * 0x1p-53 }

// TestVecSqDistLanesKeepsItsContract: SqDistLanes is NOT bit-identical to
// SqDist — it is the one kernel laned along a reduction — so what is tested is
// what its consumer's guard stands on: on finite data the two sums are within
// sqDistBound of each other, the sum is NaN or +Inf exactly when the serial
// one is — with the non-finite element at every lane position of the 16-wide
// block, of the 4-wide block and of the Go tail, in either operand — and the
// incoming ss is chained, not dropped.
func TestVecSqDistLanesKeepsItsContract(t *testing.T) {
	bothVecSettings(t, func(t *testing.T) {
		r := frand.New(83)
		for _, n := range append(seq(0, 67), 255, 1000, 68362) {
			for _, scale := range []float64{1e-30, 1, 1e15} {
				a, b := vecOperand(r, n+3)[3:], vecOperand(r, n+1)[1:]
				for i := range a {
					a[i] *= float32(scale)
				}
				serial, lanes := SqDist(0, a, b), SqDistLanes(0, a, b)
				if math.Abs(lanes-serial) > sqDistBound(n)*serial {
					t.Fatalf("n=%d scale %g: lanes %v vs serial %v differ by more than the bound", n, scale, lanes, serial)
				}
				if got, want := SqDistLanes(7.5, a, b), 7.5+lanes; n > 0 && math.Abs(got-want) > sqDistBound(n+1)*want {
					t.Fatalf("n=%d: incoming ss not chained: %v, want about %v", n, got, want)
				}
			}
		}
		nonFinite := func(v float64) bool { return !(v <= math.MaxFloat64) }
		for _, n := range []int{1, 3, 4, 7, 16, 19, 35, 67} {
			for pos := 0; pos < n; pos++ {
				for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), math.MaxFloat32} {
					for side := 0; side < 2; side++ {
						ab := [2][]float32{vecOperand(r, n), vecOperand(r, n)}
						ab[side][pos] = bad
						serial, lanes := SqDist(0, ab[0], ab[1]), SqDistLanes(0, ab[0], ab[1])
						if nonFinite(serial) != nonFinite(lanes) || nonFinite(serial) != (bad != math.MaxFloat32) {
							t.Fatalf("n=%d: %v at %d of operand %d: serial %v, lanes %v", n, bad, pos, side, serial, lanes)
						}
					}
				}
			}
		}
	})
}

// seq returns lo, lo+1, …, hi.
func seq(lo, hi int) []int {
	var s []int
	for i := lo; i <= hi; i++ {
		s = append(s, i)
	}
	return s
}

// sweepSizes are the two models the aggregation benchmarks run: perfbook's
// 68 k-parameter MLP and TinyMobileNetV3 at paper_table4's twelve classes
// (5318 parameters + 448 BN statistics).
var sweepSizes = []struct {
	name string
	n    int
}{{"mlp68k", 68362}, {"mobilenet", 5766}}

// BenchmarkFoldSweep: one client update folded into the float64 accumulator,
// vector and Go arms; an element is one parameter.
func BenchmarkFoldSweep(b *testing.B) {
	for _, sz := range sweepSizes {
		src := Randn(frand.New(9), 1, sz.n).Data()
		acc := make([]float64, sz.n)
		b.Run(sz.name, func(b *testing.B) {
			benchVecArms(b, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					FoldScaled(acc, src, 1.0/1024)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(sz.n), "ns/elem")
			})
		})
	}
}

// sqDistSink keeps the benchmarked sums alive.
var sqDistSink float64

// BenchmarkGateSweep: one client update's squared distance from the global it
// trained from — lane order in the default arm, the serial chain in the
// generic arm (which is what a guard fallback costs on top).
func BenchmarkGateSweep(b *testing.B) {
	for _, sz := range sweepSizes {
		r := frand.New(10)
		g, w := Randn(r, 1, sz.n).Data(), Randn(r, 1, sz.n).Data()
		b.Run(sz.name, func(b *testing.B) {
			benchVecArms(b, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					sqDistSink += SqDistLanes(0, w, g)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(sz.n), "ns/elem")
			})
		})
	}
}
