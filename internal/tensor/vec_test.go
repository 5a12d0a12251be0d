package tensor

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"heteroswitch/internal/frand"
	"heteroswitch/internal/israce"
	"heteroswitch/internal/vec"
	"heteroswitch/internal/vectest"
)

// The vector oracle kernels promise BIT-identical results to the Go loops —
// not a tolerance. Everything here compares math.Float32bits between the two
// settings of vec.Live, the switch only tests flip.

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

// storeBiases are the biases the GEMM's fused store meets: zeros of both
// signs, both infinities, NaNs of both signs, ordinary values, one on
// hard-swish's knee, a denormal.
var storeBiases = []float32{0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
	float32(math.NaN()), math.Float32frombits(0xffc00123), 0.7, -1.3, 3, 1e-39}

// storeInits are what an accumulating store's init adds to vecSpecials: a
// payload NaN, which the NaN biases meet, so the sum's sign and payload must
// survive as in the Go loop's sum + b, and both infinities.
var storeInits = append(slices.Clone(vecSpecials),
	math.Float32frombits(0x7fc00456), float32(math.Inf(1)), float32(math.Inf(-1)))

// storeActs are the activations the GEMM's store applies.
var storeActs = []vec.Act{vec.ActIdentity, vec.ActReLU, vec.ActHardSwish}

// sameOrNaN is exactEqual with any NaN matching any NaN, for a routine
// against an oracle loop other than its own Go loop: the two loops compile
// their adds with different operand orders, so they need not agree on which
// of two NaNs survives.
func sameOrNaN(t *testing.T, name string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", name, len(got), len(want))
	}
	for i := range got {
		if g, w := got[i], want[i]; math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
			t.Fatalf("%s: element %d differs: %v (%#x) != %v (%#x)", name, i, g, math.Float32bits(g), w, math.Float32bits(w))
		}
	}
}

// runVecCase computes every oracle kernel on one shape under both settings of
// the switch and requires identical bits: a@b accumulating, aᵀ@b over the
// full row range and a sub-range, a@bᵀ (store and accumulate), and a@b
// through the fused store — with a per-row bias drawn from storeBiases and
// with none, under each activation, storing and accumulating into storeInits
// — against matmulAcc plus the Go sweep (vectest.NaNClassEqual there, where
// a NaN bias meets a NaN sum).
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
	bias := make([]float32, m)
	for i := range bias {
		bias[i] = storeBiases[r.Intn(len(storeBiases))]
	}
	storeBase := operandWith(r, m*n, storeInits)
	i0, i1 := m/3, m-m/4 // a proper sub-range once m ≥ 4, else the whole

	kernels := []string{"a@b acc", "transA", "transA range", "transB", "transB acc"}
	run := func(on bool) [][]float32 {
		vectest.SetLive(t, on)
		acc := slices.Clone(base)
		gemmAB(acc, a, b, m, k, n, true, nil, vec.ActIdentity)
		ta := slices.Clone(base)
		matMulTransAAccRange(ta, at, b, k, m, n, 0, m)
		tr := slices.Clone(base)
		matMulTransAAccRange(tr, at, b, k, m, n, i0, i1)
		tb := slices.Clone(base)
		matMulTransB(tb, a, bt, m, k, n, false)
		tbAcc := slices.Clone(base)
		matMulTransB(tbAcc, a, bt, m, k, n, true)
		res := [][]float32{acc, ta, tr, tb, tbAcc}
		for _, rb := range [][]float32{bias, nil} {
			for _, act := range storeActs {
				for _, accumulate := range []bool{false, true} {
					o := slices.Clone(storeBase)
					gemmAB(o, a, b, m, k, n, accumulate, rb, act)
					res = append(res, o)
				}
			}
		}
		return res
	}
	want, got := run(false), run(true)
	for i := range want {
		if i < len(kernels) {
			exactEqual(t, name+" "+kernels[i], got[i], want[i])
			continue
		}
		arm := i - len(kernels)
		vectest.NaNClassEqual(t, fmt.Sprintf("%s fused store bias %v act %d acc %v", name, arm < 6, storeActs[arm/2%3], arm%2 == 1), got[i], want[i])
	}
}

func TestVecMatchesGeneric(t *testing.T) {
	vectest.Require(t)
	for i, c := range vecTable() {
		runVecCase(t, c, uint64(1000+i))
	}
}

// TestVecZeroSkipParity: a == ±0 must skip its term in both implementations
// even against b = ±Inf or NaN (the product would be NaN), and a NaN in a
// must NOT be skipped — through the fused store (bias and hard-swish, which
// keep a finite sum finite and a NaN one NaN).
func TestVecZeroSkipParity(t *testing.T) {
	vectest.Require(t)
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
		base := vecOperand(frand.New(uint64(n)), m*n) // junk: the store overwrites it
		run := func(on bool) []float32 {
			vectest.SetLive(t, on)
			out := slices.Clone(base)
			gemmAB(out, a, b, m, k, n, false, []float32{0.25, -0.5, 1}, vec.ActHardSwish)
			return out
		}
		want, got := run(false), run(true)
		vectest.NaNClassEqual(t, fmt.Sprintf("zero-skip n=%d", n), got, want)
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

// TestVecGemmWithoutTerms: at k = 0 the store still runs, act(init + bias)
// with init +0 or out's own element, and never reads a or b (nil here). A
// nil bias adds nothing, so the activation alone applies and an accumulating
// identity call leaves out's bits, −0 included.
func TestVecGemmWithoutTerms(t *testing.T) {
	negZero, nan := float32(math.Copysign(0, -1)), float32(math.NaN())
	base := []float32{negZero, 1.5, -2, nan, 3, -4}
	vectest.BothSettings(t, func(t *testing.T) {
		for _, bias := range [][]float32{{negZero, -1.5}, nil} {
			for _, act := range storeActs {
				for _, acc := range []bool{false, true} {
					want := make([]float32, len(base))
					for i := range want {
						var v float32 // +0, which turns a −0 bias into +0
						if acc {
							v = base[i]
						}
						if bias != nil {
							v += bias[i/3]
						}
						switch {
						case act == vec.ActReLU && !(v > 0):
							v = 0
						case act == vec.ActHardSwish:
							v *= HardSigmoid(v)
						}
						want[i] = v
					}
					got := slices.Clone(base)
					gemmAB(got, nil, nil, 2, 0, 3, acc, bias, act)
					vectest.NaNClassEqual(t, fmt.Sprintf("k=0 bias %v act %d acc %v", bias != nil, act, acc), got, want)
				}
			}
		}
	})
}

// FuzzVecMatchesGeneric is ROADMAP hardening item (b) for the oracle tier:
// random shapes and seeds through both implementations at tol 0, seeded with
// the table above.
func FuzzVecMatchesGeneric(f *testing.F) {
	for i, c := range vecTable() {
		f.Add(uint16(c.m), uint16(c.k), uint16(c.n), uint64(i))
	}
	f.Fuzz(func(t *testing.T, m, k, n uint16, seed uint64) {
		vectest.Require(t)
		c := vecCase{int(m%12) + 1, int(k % 320), int(n%300) + 1}
		runVecCase(t, c, seed)
	})
}

// planeBiases are the conv biases the plane forward's epilogue sees: zeros of
// both signs, ordinary values, one that shifts sums across hard-swish's ±3
// knees, a denormal.
var planeBiases = []float32{0, float32(math.Copysign(0, -1)), 0.7, -1.3, 3, 1e-39}

// gradSpecials are what the gradient kernels' weights, dy and accumulators
// meet beyond vecSpecials: both infinities and NaNs of both signs, one with a
// payload.
var gradSpecials = append(slices.Clone(vecSpecials), float32(math.Inf(1)), float32(math.Inf(-1)),
	float32(math.NaN()), math.Float32frombits(0xffc00123))

// gradWScratch is a fresh scratch of the length DepthwiseConvPlaneGradW
// takes on d.
func gradWScratch(d ConvDims) []float32 { return make([]float32, d.DepthwiseGradWScratch()) }

// runVecPlaneCase runs the three depthwise plane kernels on one geometry
// under both settings of the switch and requires identical bits: the forward
// on the first plane with a seed-chosen bias, alone and with hard-swish, each
// overwriting junk; both gradients over all planes accumulating onto it, once
// on finite operands and once with ±0, ±Inf and NaN in the weights, dy, the
// image and the accumulators (vectest.NaNClassEqual there). dW also matches the
// tap-outer oracle plane by plane.
func runVecPlaneCase(t *testing.T, h, w, k, stride, pad, planes int, seed uint64) {
	t.Helper()
	d, err := NewConvDims(1, h, w, k, k, stride, pad)
	if err != nil {
		return // kernel larger than the padded plane
	}
	r := frand.New(seed)
	taps, cols, in := d.ColRows(), d.ColCols(), h*w
	img, wt, dy := vecOperand(r, planes*in), vecOperand(r, planes*taps), vecOperand(r, planes*cols)
	junkY, junkW, junkX := vecOperand(r, cols), vecOperand(r, planes*taps), vecOperand(r, planes*in)
	special := func(n int) []float32 { return operandWith(r, n, gradSpecials) }
	imgS, wtS, dyS := special(planes*in), special(planes*taps), special(planes*cols)
	junkWS, junkXS := special(planes*taps), special(planes*in)
	bias := planeBiases[r.Intn(len(planeBiases))]
	run := func(on bool) [][]float32 {
		vectest.SetLive(t, on)
		y, yhs := slices.Clone(junkY), slices.Clone(junkY)
		DepthwiseConvPlane(y, img[:in], wt[:taps], d, bias, false)
		DepthwiseConvPlane(yhs, img[:in], wt[:taps], d, bias, true)
		dw, dx, dwS, dxS := slices.Clone(junkW), slices.Clone(junkX), slices.Clone(junkWS), slices.Clone(junkXS)
		DepthwiseConvPlaneGradW(dw, dy, img, gradWScratch(d), d)
		DepthwiseConvPlaneGradX(dx, dy, wt, d)
		DepthwiseConvPlaneGradW(dwS, dyS, imgS, gradWScratch(d), d)
		DepthwiseConvPlaneGradX(dxS, dyS, wtS, d)
		return [][]float32{y, yhs, dw, dx, dwS, dxS}
	}
	want, got := run(false), run(true)
	name := fmt.Sprintf("%d planes %dx%d k%d s%d p%d bias %g seed %d", planes, h, w, k, stride, pad, bias, seed)
	for i, kernel := range []string{"forward", "forward+hswish", "dW", "dx", "dW specials", "dx specials"} {
		if i < 4 {
			exactEqual(t, name+" "+kernel, got[i], want[i])
		} else {
			vectest.NaNClassEqual(t, name+" "+kernel, got[i], want[i])
		}
	}
	for c := 0; c < planes; c++ {
		for i, ops := range [][4][]float32{{junkW, dy, img, got[2]}, {junkWS, dyS, imgS, got[4]}} {
			tapOuter := slices.Clone(ops[0][c*taps : (c+1)*taps])
			refDepthwiseGradW(tapOuter, ops[1][c*cols:(c+1)*cols], ops[2][c*in:(c+1)*in], d)
			sameOrNaN(t, fmt.Sprintf("%s plane %d dW vs tap-outer (specials %v)", name, c, i == 1), ops[3][c*taps:(c+1)*taps], tapOuter)
		}
	}
}

// FuzzVecPlanesMatchGeneric is FuzzVecMatchesGeneric's sibling for the
// depthwise plane kernels (DepthwiseConvPlane with its bias and both
// activations, …GradW and …GradX over 1–17 planes) and the routines under
// them (vec.Depthwise3x3, vec.GradX3x3, vec.GradW3x3): random plane sizes,
// kernels, strides, pads, plane counts and seeds at tol 0 — dW against the
// tap-outer oracle too — seeded with the lowered sweep's geometries
// (depthwise_test.go), the widths around the 8-lane block of both strides, and
// plane counts around the weight gradient's eight lanes.
func FuzzVecPlanesMatchGeneric(f *testing.F) {
	for i, hw := range [][2]int{{7, 11}, {9, 5}, {13, 10}, {1, 1}, {2, 3}} {
		for _, k := range []int{1, 3, 5} {
			for _, stride := range []int{1, 2} {
				for _, pad := range []int{0, 1, 2} {
					f.Add(uint8(hw[0]-1), uint8(hw[1]-1), uint8(k-1), uint8(stride-1), uint8(pad), uint8(i), uint64(i))
				}
			}
		}
	}
	for i, w := range []int{1, 6, 7, 8, 9, 15, 16, 31, 32, 33, 40, 70} {
		f.Add(uint8(i%5), uint8(w-1), uint8(2), uint8(0), uint8(1), uint8(i), uint64(77+i))
	}
	// Stride 2 around the eight-position blocks of the gather and the
	// forward's de-interleave (odd and even widths), and the 3×3 weight
	// gradient's margins at every pad.
	for i, w := range []int{2, 3, 13, 14, 15, 16, 17, 18, 29, 31, 32, 33, 34, 35, 63, 65} {
		f.Add(uint8(1+i%6), uint8(w-1), uint8(2), uint8(1), uint8(i%3), uint8(i), uint64(91+i))
	}
	// Every plane size from 1×1 to 17×17 at 3×3, both strides, every pad,
	// and plane counts 1–17.
	for hw := 1; hw <= 17; hw++ {
		for _, stride := range []int{1, 2} {
			f.Add(uint8(hw-1), uint8(hw-1), uint8(2), uint8(stride-1), uint8(hw%3), uint8(hw-1), uint64(200+hw))
		}
	}
	// The target maps each byte onto its range from 1 (pad from 0), so a seed
	// passes one less.
	f.Fuzz(func(t *testing.T, h, w, k, stride, pad, planes uint8, seed uint64) {
		vectest.Require(t)
		runVecPlaneCase(t, int(h%24)+1, int(w%80)+1, int(k%6)+1, int(stride%3)+1, int(pad%4), int(planes%17)+1, seed)
	})
}

// gradDims is every 3×3 geometry the direct gradient tests sweep: heights
// 1–5, widths 1–17 and around the 8-lane blocks beyond, pads 0–2, at stride.
func gradDims(stride int, f func(d ConvDims)) {
	for _, w := range append(seq(1, 17), 23, 24, 25, 31, 32, 33, 40, 70) {
		for h := 1; h <= 5; h++ {
			for pad := 0; pad <= 2; pad++ {
				if d, err := NewConvDims(1, h, w, 3, 3, stride, pad); err == nil {
					f(d)
				}
			}
		}
	}
}

// gradX3x3 hands d's geometry and len(w)/9 planes to vec.GradX3x3.
func gradX3x3(dimg, dy, w []float32, d ConvDims) {
	vec.GradX3x3(dimg, dy, w, len(w)/9, d.OutH, d.OutW, d.InH, d.InW, d.StrideH, d.StrideW, d.PadH, d.PadW)
}

// gradW3x3 hands d's geometry and len(dw)/9 planes to vec.GradW3x3.
func gradW3x3(dw, dy, img, scratch []float32, d ConvDims) {
	vec.GradW3x3(dw, dy, img, scratch, len(dw)/9, d.OutH, d.OutW, d.InH, d.InW, d.StrideH, d.StrideW, d.PadH, d.PadW)
}

// TestVecPlaneAxpyMatchesGeneric drives the gather-form input gradient
// directly against the nine scalar tap AXPYs it replaces (planeGradX, the Go
// loop) at stride 1, and the plane-lane weight gradient against the one-chain
// tap-outer oracle on 1–17 planes, with ±0, ±Inf and NaN in the weights, dy,
// the image and the accumulators.
func TestVecPlaneAxpyMatchesGeneric(t *testing.T) {
	vectest.Require(t)
	testGradsMatchScalar(t, 1, frand.New(77))
}

// testGradsMatchScalar is TestVecPlaneAxpyMatchesGeneric's sweep at stride.
func testGradsMatchScalar(t *testing.T, stride int, r *frand.RNG) {
	gradDims(stride, func(d ConvDims) {
		name := fmt.Sprintf("%dx%d s%d p%d", d.InH, d.InW, stride, d.PadW)
		in, cols := d.InH*d.InW, d.ColCols()
		dy, w := operandWith(r, cols, gradSpecials), operandWith(r, 9, gradSpecials)
		dimg := operandWith(r, in, gradSpecials)
		want, got := slices.Clone(dimg), slices.Clone(dimg)
		d.planeGradX(want, dy, w)
		gradX3x3(got, dy, w, d)
		vectest.NaNClassEqual(t, name+" dx", got, want)

		planes := 1 + (d.InW+d.InH+d.PadW)%17
		dys, imgs := operandWith(r, planes*cols, gradSpecials), operandWith(r, planes*in, gradSpecials)
		dw := operandWith(r, planes*9, gradSpecials)
		wantW, gotW := slices.Clone(dw), slices.Clone(dw)
		for c := 0; c < planes; c++ {
			refDepthwiseGradW(wantW[9*c:9*c+9], dys[c*cols:(c+1)*cols], imgs[c*in:(c+1)*in], d)
		}
		gradW3x3(gotW, dys, imgs, gradWScratch(d), d)
		sameOrNaN(t, fmt.Sprintf("%s dW, %d planes", name, planes), gotW, wantW)
	})
}

// TestVecStride2TapsMatchGeneric drives the stride-2 routines directly
// against the scalar loops they replace: the de-interleaving im2col gather
// against its row loop, on slices that END at the last element the row loop
// touches (2(n−1) past the row start, never the odd element after it), and
// the gather-form input gradient and plane-lane weight gradient at stride 2
// against planeGradX and the tap-outer oracle (TestVecPlaneAxpyMatchesGeneric's
// sweep). The gather copies NaN, −0 and denormals as bits and leaves the
// elements between its destination rows alone; the input gradient's pixels
// that no tap reaches — an odd last column at pad 0 — hold −0, NaN and
// denormals and must keep their bits.
func TestVecStride2TapsMatchGeneric(t *testing.T) {
	vectest.Require(t)
	r := frand.New(78)
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 23, 24, 25, 40} {
		for _, rows := range []int{1, 2, 5} {
			narrow, wide := n+3, 2*n+4
			// gather: col[j] = img[2j]
			src := operandWith(r, (rows-1)*wide+2*n-1, foldSpecials)
			dst := vecOperand(r, (rows-1)*narrow+n)
			want := slices.Clone(dst)
			for y := 0; y < rows; y++ {
				for j := 0; j < n; j++ {
					want[y*narrow+j] = src[y*wide+2*j]
				}
			}
			got := slices.Clone(dst)
			vec.Gather2(got, narrow, src, wide, rows, n)
			exactEqual(t, fmt.Sprintf("gather %dx%d", rows, n), got, want)
		}
	}
	odd := []float32{float32(math.Copysign(0, -1)), float32(math.NaN()), -1e-41, 0}
	for _, w := range []int{4, 6, 8, 16, 18} { // pad 0 reaches no pixel of an even width's last column
		d, err := NewConvDims(1, 5, w, 3, 3, 2, 0)
		if err != nil {
			t.Fatal(err)
		}
		dy, wt := vecOperand(r, d.ColCols()), vecOperand(r, 9)
		dimg := vecOperand(r, 5*w)
		for i := w - 1; i < len(dimg); i += w {
			dimg[i] = odd[i%len(odd)]
		}
		want, got := slices.Clone(dimg), slices.Clone(dimg)
		d.planeGradX(want, dy, wt)
		gradX3x3(got, dy, wt, d)
		exactEqual(t, fmt.Sprintf("stride-2 dx 5x%d p0", w), got, want)
		for i := w - 1; i < len(got); i += w {
			if math.Float32bits(got[i]) != math.Float32bits(dimg[i]) {
				t.Fatalf("stride-2 dx 5x%d p0: unreached pixel %d changed from %v to %v", w, i, dimg[i], got[i])
			}
		}
	}
	testGradsMatchScalar(t, 2, r)
}

// depthwise3x3 hands d's geometry to vec.Depthwise3x3, bias 0.5, no
// activation.
func depthwise3x3(y, img, w []float32, d ConvDims) {
	vec.Depthwise3x3(y, img, w, d.OutH, d.OutW, d.InH, d.InW, d.StrideH, d.StrideW, d.PadH, d.PadW, 0.5, false)
}

// TestVecDepthwiseZeroSkipParity: the fused 3×3 forward and the gather-form
// input gradient skip what their Go tap loops skip and nothing else, at both
// strides, every pad and widths through the 8-lane block. Zero weights of
// both signs face ±Inf and NaN pixels (forward) and dy values (input
// gradient) and must skip them; a NaN weight must poison exactly the outputs
// whose tap lands inside the image, and exactly the input pixels its tap
// reaches (its out-of-image lanes are skipped, never 0·NaN); the centre tap
// alone carries the hard-sigmoid knees and non-finite pixels through the
// epilogue. The plane-lane weight gradient, whose dot forms skip only the
// taps outside the image, meets the poisoned pixels and dy values together.
// NaNs meet NaN sums here, so the comparison is vectest.NaNClassEqual.
func TestVecDepthwiseZeroSkipParity(t *testing.T) {
	vectest.Require(t)
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	negZero := float32(math.Copysign(0, -1))
	knees := []float32{3, -3, math.Nextafter32(3, 0), math.Nextafter32(-3, 0), math.Nextafter32(3, 4),
		math.Nextafter32(-3, -4), -inf, inf, nan, negZero, 0, 1e-39, 7.5, -7.5}
	r := frand.New(84)
	for _, stride := range []int{1, 2} {
		for _, w := range []int{1, 5, 8, 9, 15, 16, 17, 23, 33} {
			for _, pad := range []int{0, 1, 2} {
				d, err := NewConvDims(1, 7, w, 3, 3, stride, pad)
				if err != nil {
					continue
				}
				name := fmt.Sprintf("s%d w%d p%d", stride, w, pad)
				forward := func(on bool, img, wt []float32, bias float32, hs bool) []float32 {
					vectest.SetLive(t, on)
					y := vecOperand(r, d.ColCols()) // junk: the kernel must overwrite
					DepthwiseConvPlane(y, img, wt, d, bias, hs)
					return y
				}
				poisoned := vecOperand(r, 7*w)
				for i := range poisoned {
					if i%5 == 2 {
						poisoned[i] = []float32{inf, -inf, nan}[i%3]
					}
				}
				zeros := []float32{0.5, 0, -1, negZero, 2, 0, 1.25, negZero, 0.75}
				centre := make([]float32, 7*w)
				for i := range centre {
					centre[i] = knees[i%len(knees)]
				}
				finite := vecOperand(r, 7*w)
				nanCorner := []float32{nan, 0.5, 0.5, 0.5, 1, 0.5, 0.5, 0.5, 0.5}
				for _, hs := range []bool{false, true} {
					vectest.NaNClassEqual(t, fmt.Sprintf("%s hswish=%v zero taps", name, hs),
						forward(true, poisoned, zeros, -0.25, hs), forward(false, poisoned, zeros, -0.25, hs))
					vectest.NaNClassEqual(t, fmt.Sprintf("%s hswish=%v centre tap", name, hs),
						forward(true, centre, []float32{0, 0, 0, 0, 1, 0, 0, 0, 0}, 0, hs),
						forward(false, centre, []float32{0, 0, 0, 0, 1, 0, 0, 0, 0}, 0, hs))
					got := forward(true, finite, nanCorner, 0.125, hs)
					vectest.NaNClassEqual(t, fmt.Sprintf("%s hswish=%v NaN corner", name, hs), got, forward(false, finite, nanCorner, 0.125, hs))
					for oy := 0; oy < d.OutH; oy++ {
						for ox := 0; ox < d.OutW; ox++ {
							iy, ix := oy*stride-pad, ox*stride-pad
							inside := iy >= 0 && iy < 7 && ix >= 0 && ix < w
							if v := got[oy*d.OutW+ox]; (v != v) != inside {
								t.Fatalf("%s hswish=%v: output (%d,%d) = %v, corner tap inside the image: %v", name, hs, oy, ox, v, inside)
							}
						}
					}
				}
				poisonedDy := vecOperand(r, d.ColCols())
				for i := range poisonedDy {
					if i%5 == 2 {
						poisonedDy[i] = []float32{inf, -inf, nan}[i%3]
					}
				}
				junkX, junkW := vecOperand(r, 7*w), vecOperand(r, 9)
				grads := func(on bool, dy, wt []float32) (dx, dw []float32) {
					vectest.SetLive(t, on)
					dx, dw = slices.Clone(junkX), slices.Clone(junkW)
					DepthwiseConvPlaneGradX(dx, dy, wt, d)
					DepthwiseConvPlaneGradW(dw, dy, poisoned, gradWScratch(d), d)
					return dx, dw
				}
				gotX, gotW := grads(true, poisonedDy, zeros)
				wantX, wantW := grads(false, poisonedDy, zeros)
				vectest.NaNClassEqual(t, name+" dx zero taps", gotX, wantX)
				vectest.NaNClassEqual(t, name+" dW poisoned", gotW, wantW)
				finiteDy := vecOperand(r, d.ColCols())
				gotX, _ = grads(true, finiteDy, nanCorner)
				wantX, _ = grads(false, finiteDy, nanCorner)
				vectest.NaNClassEqual(t, name+" dx NaN corner", gotX, wantX)
				for iy := 0; iy < 7; iy++ {
					for ix := 0; ix < w; ix++ {
						oy, ox := iy+pad, ix+pad // times stride: the corner tap's output position
						reached := oy%stride == 0 && oy/stride < d.OutH && ox%stride == 0 && ox/stride < d.OutW
						if v := gotX[iy*w+ix]; (v != v) != reached {
							t.Fatalf("%s: dx pixel (%d,%d) = %v, reached by the corner tap: %v", name, iy, ix, v, reached)
						}
					}
				}
			}
		}
	}
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
	scratch := plane3x3.DepthwiseGradWScratch()
	for _, tc := range []struct {
		name string
		call func()
	}{
		{"gemm out", func() { vec.Gemm(full(m*n-1), n, full(m*k), k, 1, full(k*n), n, m, n, k, true, nil, vec.ActIdentity) }},
		{"gemm a", func() { vec.Gemm(full(m*n), n, full(m*k-1), k, 1, full(k*n), n, m, n, k, true, nil, vec.ActIdentity) }},
		{"gemm b", func() { vec.Gemm(full(m*n), n, full(m*k), k, 1, full(k*n-1), n, m, n, k, true, nil, vec.ActIdentity) }},
		{"gemm a transposed", func() { vec.Gemm(full(m*n), n, full(k*m-1), 1, m, full(k*n), n, m, n, k, true, nil, vec.ActIdentity) }},
		{"gemm stride", func() { vec.Gemm(full(m*n), n, full(m*k), 0, 1, full(k*n), n, m, n, k, true, nil, vec.ActIdentity) }},
		{"gemm bias", func() { vec.Gemm(full(m*n), n, full(m*k), k, 1, full(k*n), n, m, n, k, false, full(m-1), vec.ActReLU) }},
		{"gemm bias, no terms", func() { vec.Gemm(full(m*n), n, nil, k, 1, nil, n, m, n, 0, false, full(m-1), vec.ActHardSwish) }},
		{"transB out", func() { vec.DotTransB(full(m*n-1), full(m*k), full(n*k), m, k, n, false) }},
		{"transB a", func() { vec.DotTransB(full(m*n), full(m*k-1), full(n*k), m, k, n, false) }},
		{"transB b", func() { vec.DotTransB(full(m*n), full(m*k), full(n*k-1), m, k, n, true) }},
		{"gather dst", func() { vec.Gather2(full(2*12+n-1), 12, full(2*20+2*n-1), 20, 3, n) }},
		{"gather src", func() { vec.Gather2(full(2*12+n), 12, full(2*20+2*n-2), 20, 3, n) }},
		{"gather src stride", func() { vec.Gather2(full(2*12+n), 12, full(80), 2*n-2, 3, n) }},
		{"gather dst stride", func() { vec.Gather2(full(80), n-1, full(2*20+2*n-1), 20, 3, n) }},
		{"dW 3x3 dw", func() { vec.GradW3x3(full(17), full(2*6*7), full(2*6*7), full(scratch), 2, 6, 7, 6, 7, 1, 1, 1, 1) }},
		{"dW 3x3 dy", func() { gradW3x3(full(18), full(2*6*7-1), full(2*6*7), full(scratch), plane3x3) }},
		{"dW 3x3 img", func() { gradW3x3(full(18), full(2*6*7), full(2*6*7-1), full(scratch), plane3x3) }},
		{"dW 3x3 scratch", func() { gradW3x3(full(18), full(2*6*7), full(2*6*7), full(scratch-1), plane3x3) }},
		{"dx 3x3 dimg", func() { gradX3x3(full(2*6*7-1), full(2*6*7), full(18), plane3x3) }},
		{"dx 3x3 dy", func() { gradX3x3(full(2*6*7), full(2*6*7-1), full(18), plane3x3) }},
		{"dx 3x3 w", func() { vec.GradX3x3(full(2*6*7), full(2*6*7), full(17), 2, 6, 7, 6, 7, 1, 1, 1, 1) }},
		{"dx 3x3 geometry", func() {
			gradX3x3(full(6*7), full(6*7), full(9), ConvDims{OutH: 6, OutW: 7, InW: 7, StrideH: 1, StrideW: 1})
		}},
		{"dw 3x3 y", func() { depthwise3x3(full(6*7-1), full(6*7), full(9), plane3x3) }},
		{"dw 3x3 img", func() { depthwise3x3(full(6*7), full(6*7-1), full(9), plane3x3) }},
		{"dw 3x3 w", func() { depthwise3x3(full(6*7), full(6*7), full(8), plane3x3) }},
		{"dw 3x3 geometry", func() {
			depthwise3x3(full(6*7), full(6*7), full(9), ConvDims{OutH: 6, OutW: 7, InH: 6, InW: 7, StrideW: 1})
		}},
		{"row scale", func() { vec.ScaleRows(full(3*n-1), full(3*n), full(3), 3, n) }},
		{"row scale x", func() { vec.ScaleRows(full(3*n), full(3*n-1), full(3), 3, n) }},
		{"row scale scales", func() { vec.ScaleRows(full(3*n), full(3*n), full(2), 3, n) }},
		{"add out", func() { vec.Add(full(n-1), full(n), full(n)) }},
		{"add b", func() { vec.Add(full(n), full(n), full(n-1)) }},
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
	vec.Gemm(nil, 4, nil, 1, 1, nil, 4, 0, 4, 3, false, nil, vec.ActReLU)
	vec.Gemm(nil, 4, nil, 1, 1, nil, 4, 2, 0, 3, true, nil, vec.ActHardSwish)
	vec.DotTransB(nil, nil, nil, 0, 3, 4, true)
	vec.Gather2(nil, 4, nil, 8, 0, 4)
	gradW3x3(nil, nil, nil, nil, ConvDims{OutH: 2, OutW: 2})
	vec.GradW3x3(nil, nil, nil, nil, 2, 0, 2, 2, 2, 1, 1, 0, 0)
	gradX3x3(nil, nil, nil, ConvDims{OutH: 2, StrideH: 3, StrideW: 3})
	depthwise3x3(nil, nil, nil, ConvDims{OutW: 4, StrideW: 3})
	vec.ScaleRows(nil, nil, nil, 3, 0)
	vec.Add(nil, nil, nil)
	// A column stride other than 1 or 2 has no de-interleave to run.
	func() {
		defer func() {
			if msg, _ := recover().(string); !strings.Contains(msg, "column stride 3") {
				t.Fatalf("3x3 depthwise at column stride 3: recovered %q", msg)
			}
		}()
		depthwise3x3(full(4), full(36), full(9), ConvDims{OutH: 2, OutW: 2, InH: 6, InW: 6, StrideH: 3, StrideW: 3})
	}()
	// … nor has either gradient a stride above 2 in either direction.
	for _, st := range [][2]int{{3, 1}, {1, 3}} {
		d := ConvDims{OutH: 2, OutW: 2, InH: 6, InW: 6, StrideH: st[0], StrideW: st[1]}
		for _, g := range []struct {
			name string
			call func()
		}{
			{"input", func() { gradX3x3(full(36), full(4), full(9), d) }},
			{"weight", func() { gradW3x3(full(9), full(4), full(36), full(vec.GradW3x3Scratch(2, 2, 6, 6)), d) }},
		} {
			func() {
				defer func() {
					if msg, _ := recover().(string); !strings.Contains(msg, fmt.Sprintf("%s gradient strides %d×%d", g.name, st[0], st[1])) {
						t.Fatalf("3x3 %s gradient at strides %d×%d: recovered %q", g.name, st[0], st[1], msg)
					}
				}()
				g.call()
			}()
		}
	}
	FoldScaled(nil, nil, 1)
	if ss := SqDistLanes(2.5, nil, nil); ss != 2.5 {
		t.Fatalf("squared distance of nothing changed the incoming sum to %v", ss)
	}
}

// TestAutoStaysOnOracleWhenVectorLive: with the vector kernels live auto
// neither dispatches to the packed kernel nor packs anything for it, and its
// fused output is the serial backend's, bit for bit.
func TestAutoStaysOnOracleWhenVectorLive(t *testing.T) {
	vectest.Require(t)
	vectest.SetLive(t, true)
	autoIsTheOracle(t)
}

// convGemmShapes are TinyMobileNetV3's stem (lowered) and pointwise convs at
// batch 1 as GEMMs: m output channels, k the fan-in, n output pixels.
var convGemmShapes = []struct {
	name    string
	m, k, n int
}{
	{"stem", 8, 27, 256}, {"b1-expand", 16, 8, 256}, {"b1-project", 8, 16, 256}, {"b2-expand", 24, 8, 256},
	{"b2-project", 16, 24, 64}, {"b3-expand", 32, 16, 64}, {"b3-project", 16, 32, 64}, {"head", 32, 16, 64},
}

// BenchmarkConvGemm: each of those GEMMs with a bias and hard-swish, as the
// one fused store ("fused") and as the three passes it replaced ("sweep": a
// clear, the accumulating GEMM, the BiasAct sweep), in GFLOP/s of the
// GEMM's 2·m·k·n.
func BenchmarkConvGemm(b *testing.B) {
	vectest.Require(b)
	for _, sh := range convGemmShapes {
		r := frand.New(12)
		w, x, bias := Randn(r, 1, sh.m*sh.k).Data(), Randn(r, 1, sh.k*sh.n).Data(), Randn(r, 1, sh.m).Data()
		out := make([]float32, sh.m*sh.n)
		for _, arm := range []string{"fused", "sweep"} {
			b.Run(sh.name+"/"+arm, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if arm == "fused" {
						vec.Gemm(out, sh.n, w, sh.k, 1, x, sh.n, sh.m, sh.n, sh.k, false, bias, vec.ActHardSwish)
						continue
					}
					clear(out)
					vec.Gemm(out, sh.n, w, sh.k, 1, x, sh.n, sh.m, sh.n, sh.k, true, nil, vec.ActIdentity)
					vec.BiasAct(out, sh.m, sh.n, bias, true)
				}
				b.ReportMetric(2*float64(sh.m*sh.k*sh.n)*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "GFLOP/s")
			})
		}
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

// nanClassEqual64 is vectest.NaNClassEqual for the fold's float64 accumulators,
// where a NaN update meets a NaN sum: bit for bit, NaN payloads included,
// except that under -race any NaN matches any NaN.
func nanClassEqual64(t *testing.T, name string, got, want []float64) {
	t.Helper()
	for i := range want {
		if g, w := got[i], want[i]; math.Float64bits(g) != math.Float64bits(w) && !(israce.Enabled && g != g && w != w) {
			t.Fatalf("%s: element %d differs: %v (%#x) != %v (%#x) (must be bit-identical)",
				name, i, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

// runVecFoldCase folds n elements at the given element offsets into their
// buffers — so the routine sees every 4- and 8-byte misalignment — three
// times over (w, then −w/3, then w again) under both settings of the switch,
// and requires the whole accumulator buffer, the elements around the window
// included, to come out bit-identical (nanClassEqual64).
func runVecFoldCase(t *testing.T, n, dstOff, srcOff int, w float64, seed uint64) {
	t.Helper()
	r := frand.New(seed)
	src := foldSrc(r, srcOff+n+3)
	base := foldAcc(r, dstOff+n+3)
	run := func(on bool) []float64 {
		vectest.SetLive(t, on)
		acc := slices.Clone(base)
		for _, wk := range []float64{w, -w / 3, w} {
			FoldScaled(acc[dstOff:dstOff+n], src[srcOff:srcOff+n], wk)
		}
		return acc
	}
	want, got := run(false), run(true)
	nanClassEqual64(t, fmt.Sprintf("fold n=%d offsets %d,%d w=%v seed %d", n, dstOff, srcOff, w, seed), got, want)
}

func TestVecFoldMatchesGeneric(t *testing.T) {
	vectest.Require(t)
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
		vectest.Require(t)
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
	vectest.BothSettings(t, func(t *testing.T) {
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
			vectest.BenchArms(b, func(b *testing.B) {
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
			vectest.BenchArms(b, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					sqDistSink += SqDistLanes(0, w, g)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(sz.n), "ns/elem")
			})
		})
	}
}

// addSpecials are NaNs of four payloads (one signalling, one negative), the
// infinities, zeros of both signs and a denormal: dense enough in NaNs that
// AddInPlace's operands meet NaN with NaN.
var addSpecials = []float32{float32(math.NaN()), math.Float32frombits(0xffc00123), math.Float32frombits(0x7fc00456),
	math.Float32frombits(0x7f800321), float32(math.Inf(1)), float32(math.Inf(-1)), 0, float32(math.Copysign(0, -1)), 1e-39}

// TestAddInPlaceMatchesGoLoop checks the residual add under both settings of
// the switch against the Go loop t[i] += o[i], on lengths around vec.Add's 8-
// and 32-element blocks. Where both operands are NaN, t's NaN (quieted) must
// survive, which pins the operand order of the routine and the loop alike.
func TestAddInPlaceMatchesGoLoop(t *testing.T) {
	vectest.BothSettings(t, func(t *testing.T) {
		r := frand.New(41)
		meets := 0
		for _, n := range []int{1, 7, 8, 9, 31, 32, 33, 67, 1000} {
			a, b := operandWith(r, n, addSpecials), operandWith(r, n, addSpecials)
			want := slices.Clone(a)
			for i := range want {
				want[i] += b[i]
			}
			got := FromSlice(slices.Clone(a), n)
			got.AddInPlace(FromSlice(b, n))
			name := fmt.Sprintf("n=%d", n)
			vectest.NaNClassEqual(t, name, got.Data(), want)
			for i, g := range got.Data() {
				if a[i] == a[i] || b[i] == b[i] {
					continue
				}
				meets++
				if !israce.Enabled && math.Float32bits(g) != math.Float32bits(a[i])|0x00400000 {
					t.Fatalf("%s: element %d: NaN %#x + NaN %#x gave %#x, want the first operand's", name, i,
						math.Float32bits(a[i]), math.Float32bits(b[i]), math.Float32bits(g))
				}
			}
		}
		if meets == 0 {
			t.Fatal("no NaN met a NaN: the operands test nothing about operand order")
		}
	})
}
