package tensor

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"heteroswitch/internal/frand"
	"heteroswitch/internal/vec"
	"heteroswitch/internal/vectest"
)

// The loops DepthwiseConvPlaneGradW and Im2Col ran before they were given
// independent chains and a branch-free copy, kept verbatim as oracles: the
// rewrites promise these loops' bits, not a tolerance.

// refIm2Col tests the bounds of every output element.
func refIm2Col(col, img []float32, d ConvDims) {
	cols := d.ColCols()
	row := 0
	for c := 0; c < d.InC; c++ {
		chanBase := c * d.InH * d.InW
		for ky := 0; ky < d.KH; ky++ {
			for kx := 0; kx < d.KW; kx++ {
				dst := col[row*cols : (row+1)*cols]
				i := 0
				for oy := 0; oy < d.OutH; oy++ {
					iy := oy*d.StrideH - d.PadH + ky
					if iy < 0 || iy >= d.InH {
						for ox := 0; ox < d.OutW; ox++ {
							dst[i] = 0
							i++
						}
						continue
					}
					rowBase := chanBase + iy*d.InW
					for ox := 0; ox < d.OutW; ox++ {
						ix := ox*d.StrideW - d.PadW + kx
						if ix < 0 || ix >= d.InW {
							dst[i] = 0
						} else {
							dst[i] = img[rowBase+ix]
						}
						i++
					}
				}
				row++
			}
		}
	}
}

// refDepthwiseGradW is tap-outer: one refTapDot per tap.
func refDepthwiseGradW(dw, dy, img []float32, d ConvDims) {
	t := 0
	for ky := 0; ky < d.KH; ky++ {
		for kx := 0; kx < d.KW; kx++ {
			dw[t] += refTapDot(&d, dy, img, ky, kx)
			t++
		}
	}
}

// refTapDot is tap (ky, kx)'s dot product of dy with the shifted plane: one
// accumulator from +0 over the output positions in ascending order. A tap
// that never lands inside the image returns that +0.
func refTapDot(d *ConvDims, dy, img []float32, ky, kx int) float32 {
	oxLo, oxHi := d.tapOxRange(kx)
	if oxLo >= oxHi {
		return 0
	}
	var s float32
	for oy := 0; oy < d.OutH; oy++ {
		iy := oy*d.StrideH - d.PadH + ky
		if iy < 0 || iy >= d.InH {
			continue
		}
		dyrow := dy[oy*d.OutW+oxLo : oy*d.OutW+oxHi]
		ibase := iy*d.InW - d.PadW + kx
		if d.StrideW == 1 {
			irow := img[ibase+oxLo : ibase+oxHi]
			for j, g := range dyrow {
				s += g * irow[j]
			}
		} else {
			ii := ibase + oxLo*d.StrideW
			for _, g := range dyrow {
				s += g * img[ii]
				ii += d.StrideW
			}
		}
	}
	return s
}

// planeGeoms is the plane-kernel geometry table: the lowered sweep's planes
// (depthwise_test.go), planes from 1×1 and 1×N up whose taps mostly miss the
// image, and TinyMobileNetV3's 16×16 and 8×8.
var planeGeoms = [][2]int{{1, 1}, {1, 2}, {1, 9}, {2, 1}, {2, 3}, {3, 3}, {4, 5}, {7, 11}, {9, 5}, {13, 10}, {8, 8}, {16, 16}, {6, 33}}

// forPlaneGeoms calls f on every valid (plane, kernel, stride, pad) of the
// table: kernels 1/3/5, strides 1/2, pads 0/1/2.
func forPlaneGeoms(f func(name string, d ConvDims)) {
	for _, hw := range planeGeoms {
		for _, k := range []int{1, 3, 5} {
			for _, stride := range []int{1, 2} {
				for _, pad := range []int{0, 1, 2} {
					d, err := NewConvDims(1, hw[0], hw[1], k, k, stride, pad)
					if err != nil {
						continue // kernel larger than the padded plane
					}
					f(fmt.Sprintf("%dx%d k%d s%d p%d", hw[0], hw[1], k, stride, pad), d)
				}
			}
		}
	}
}

// TestDepthwiseGradWMatchesTapDot: the position-outer dW against the tap-outer
// loop it replaced and against the lowered Im2Col + MatMulTransBAccSlices, on
// operands with ±0 and denormals, accumulating onto junk.
func TestDepthwiseGradWMatchesTapDot(t *testing.T) {
	vectest.BothSettings(t, func(t *testing.T) {
		r := frand.New(171)
		forPlaneGeoms(func(name string, d ConvDims) {
			taps, cols := d.ColRows(), d.ColCols()
			img, dy, junk := vecOperand(r, d.InH*d.InW), vecOperand(r, cols), vecOperand(r, taps)
			want := slices.Clone(junk)
			refDepthwiseGradW(want, dy, img, d)
			got := slices.Clone(junk)
			DepthwiseConvPlaneGradW(got, dy, img, gradWScratch(d), d)
			exactEqual(t, name+" dW vs tap-outer", got, want)

			col := make([]float32, taps*cols)
			refIm2Col(col, img, d)
			lowered := slices.Clone(junk)
			MatMulTransBAccSlices(lowered, dy, col, 1, cols, taps)
			exactEqual(t, name+" dW vs lowered", got, lowered)
		})
	})
}

// TestDepthwiseGradWLargeKernel: a kernel past the stack accumulators (6×6,
// 36 taps in four sweeps) and a 7×2 one whose last sweep is short.
func TestDepthwiseGradWLargeKernel(t *testing.T) {
	r := frand.New(172)
	for _, c := range []struct{ h, w, kh, kw, stride, pad int }{{11, 12, 6, 6, 1, 2}, {9, 14, 7, 2, 2, 1}, {5, 5, 6, 6, 1, 3}} {
		d := ConvDims{InC: 1, InH: c.h, InW: c.w, KH: c.kh, KW: c.kw, StrideH: c.stride, StrideW: c.stride, PadH: c.pad, PadW: c.pad}
		d.OutH = (c.h+2*c.pad-c.kh)/c.stride + 1
		d.OutW = (c.w+2*c.pad-c.kw)/c.stride + 1
		img, dy, junk := vecOperand(r, c.h*c.w), vecOperand(r, d.ColCols()), vecOperand(r, c.kh*c.kw)
		want, got := slices.Clone(junk), slices.Clone(junk)
		refDepthwiseGradW(want, dy, img, d)
		DepthwiseConvPlaneGradW(got, dy, img, gradWScratch(d), d)
		exactEqual(t, fmt.Sprintf("%dx%d k%dx%d s%d p%d", c.h, c.w, c.kh, c.kw, c.stride, c.pad), got, want)
	}
}

// TestIm2ColMatchesBranchingLoop: the margin-clearing Im2Col against the loop
// that tested every element, over junk, on the plane table with one and three
// channels, and at stride 2 — the vector gather's — for every pad, kernel
// 1/3/5 and widths 1–33. Pure data movement, so −0, denormals and NaN must
// arrive as bits.
func TestIm2ColMatchesBranchingLoop(t *testing.T) {
	vectest.BothSettings(t, func(t *testing.T) {
		r := frand.New(173)
		check := func(name string, d ConvDims) {
			for _, inC := range []int{1, 3} {
				d.InC = inC
				img := vecOperand(r, inC*d.InH*d.InW)
				img[0], img[len(img)-1] = float32(math.NaN()), float32(math.Copysign(0, -1))
				want := vecOperand(r, d.ColRows()*d.ColCols())
				got := slices.Clone(want)
				refIm2Col(want, img, d)
				Im2Col(got, img, d)
				for i := range want {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("%s c%d: col[%d] = %v, want %v", name, inC, i, got[i], want[i])
					}
				}
			}
		}
		forPlaneGeoms(check)
		for w := 1; w <= 33; w++ {
			for _, k := range []int{1, 3, 5} {
				for _, pad := range []int{0, 1, 2} {
					if d, err := NewConvDims(1, 5, w, k, k, 2, pad); err == nil {
						check(fmt.Sprintf("5x%d k%d s2 p%d", w, k, pad), d)
					}
				}
			}
		}
	})
}

// benchAgainstRef times f under benchVecArms and the oracle loop ref as a
// third arm, "ref". Every arm reports ns per element; the two arms of f also
// report how many times faster than ref they ran ("x-ref": ref's time over
// f's, both over the same b.N in the same arm, so a busy machine skews both).
func benchAgainstRef(b *testing.B, elems int, ref, f func()) {
	perElem := func(b *testing.B, g func()) float64 {
		t0 := time.Now()
		for i := 0; i < b.N; i++ {
			g()
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(b.N) / float64(elems)
	}
	vectest.BenchArms(b, func(b *testing.B) {
		per := perElem(b, f)
		b.StopTimer()
		b.ReportMetric(per, "ns/elem")
		b.ReportMetric(perElem(b, ref)/per, "x-ref")
	})
	b.Run("ref", func(b *testing.B) { b.ReportMetric(perElem(b, ref), "ns/elem") })
}

// BenchmarkDepthwiseGradW: the 3×3 weight gradient on one plane of
// TinyMobileNetV3's two plane sizes, stride 1 and 2 (pad 1), and on a whole
// sample of each of its three depthwise layers ("layer-…": 16 planes of
// 16×16 at stride 1, 24 of 16×16 at stride 2, 32 of 8×8 at stride 1); an
// element is one output position of one tap of one plane.
func BenchmarkDepthwiseGradW(b *testing.B) {
	for _, c := range []struct {
		name               string
		planes, hw, stride int
	}{
		{"16x16/s1", 1, 16, 1}, {"16x16/s2", 1, 16, 2}, {"8x8/s1", 1, 8, 1}, {"8x8/s2", 1, 8, 2},
		{"layer-16x16x16/s1", 16, 16, 1}, {"layer-24x16x16/s2", 24, 16, 2}, {"layer-32x8x8/s1", 32, 8, 1},
	} {
		d, err := NewConvDims(1, c.hw, c.hw, 3, 3, c.stride, 1)
		if err != nil {
			b.Fatal(err)
		}
		r := frand.New(5)
		in, cols := c.hw*c.hw, d.ColCols()
		img, dy := Randn(r, 1, c.planes*in).Data(), Randn(r, 1, c.planes*cols).Data()
		dw, scratch := make([]float32, 9*c.planes), gradWScratch(d)
		ref := func() {
			for p := 0; p < c.planes; p++ {
				refDepthwiseGradW(dw[9*p:9*p+9], dy[p*cols:(p+1)*cols], img[p*in:(p+1)*in], d)
			}
		}
		b.Run(c.name, func(b *testing.B) {
			benchAgainstRef(b, 9*c.planes*cols, ref, func() { DepthwiseConvPlaneGradW(dw, dy, img, scratch, d) })
		})
	}
}

// BenchmarkIm2Col/stem: TinyMobileNetV3's stem lowering, 3×32×32 → [27, 256]
// at 3×3 stride 2 pad 1; an element is one col entry.
func BenchmarkIm2Col(b *testing.B) {
	d, err := NewConvDims(3, 32, 32, 3, 3, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	img := Randn(frand.New(6), 1, 3*32*32).Data()
	col := make([]float32, d.ColRows()*d.ColCols())
	b.Run("stem", func(b *testing.B) {
		benchAgainstRef(b, len(col), func() { refIm2Col(col, img, d) }, func() { Im2Col(col, img, d) })
	})
}

// BenchmarkDepthwisePlane: TinyMobileNetV3's three depthwise planes (3×3,
// pad 1) — s1-16x16, the down-sampling s2 (16×16 → 8×8) and s1-8x8 — forward
// with its bias (fwd) and with bias and hard-swish fused (fwd+hswish), and
// the input gradient (dx); an element is one output position of one tap, and
// the oracle is the scalar tap loop (the "generic" arm itself).
func BenchmarkDepthwisePlane(b *testing.B) {
	for _, c := range []struct {
		name       string
		hw, stride int
	}{{"s1-16x16", 16, 1}, {"s2", 16, 2}, {"s1-8x8", 8, 1}} {
		d, err := NewConvDims(1, c.hw, c.hw, 3, 3, c.stride, 1)
		if err != nil {
			b.Fatal(err)
		}
		r := frand.New(8)
		img, w, dy := Randn(r, 1, c.hw*c.hw).Data(), Randn(r, 1, 9).Data(), Randn(r, 1, d.ColCols()).Data()
		y, dimg := make([]float32, d.ColCols()), make([]float32, c.hw*c.hw)
		scalar := func(f func()) func() {
			return func() {
				prev := vec.Live
				vec.Live = false
				f()
				vec.Live = prev
			}
		}
		fwd := func() { DepthwiseConvPlane(y, img, w, d, 0.25, false) }
		fwdHS := func() { DepthwiseConvPlane(y, img, w, d, 0.25, true) }
		b.Run(c.name+"/fwd", func(b *testing.B) { benchAgainstRef(b, 9*d.ColCols(), scalar(fwd), fwd) })
		b.Run(c.name+"/fwd+hswish", func(b *testing.B) { benchAgainstRef(b, 9*d.ColCols(), scalar(fwdHS), fwdHS) })
		dx := func() { DepthwiseConvPlaneGradX(dimg, dy, w, d) }
		b.Run(c.name+"/dx", func(b *testing.B) { benchAgainstRef(b, 9*d.ColCols(), scalar(dx), dx) })
	}
}
