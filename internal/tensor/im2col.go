package tensor

import (
	"fmt"

	"heteroswitch/internal/vec"
)

// ConvDims describes a 2-D convolution geometry shared by Im2Col and the
// conv layers in internal/nn.
type ConvDims struct {
	InC, InH, InW    int // input channels / height / width
	KH, KW           int // kernel size
	StrideH, StrideW int
	PadH, PadW       int
	OutH, OutW       int // derived output size
}

// NewConvDims computes output sizes for the given geometry. It returns an
// error for a kernel or stride below 1, a negative pad, or a kernel larger
// than the padded plane (no window fits, so there is no output) — the direct
// plane kernels' ox-range arithmetic relies on all four.
func NewConvDims(inC, inH, inW, kh, kw, stride, pad int) (ConvDims, error) {
	d := ConvDims{
		InC: inC, InH: inH, InW: inW,
		KH: kh, KW: kw,
		StrideH: stride, StrideW: stride,
		PadH: pad, PadW: pad,
	}
	if kh < 1 || kw < 1 || stride < 1 || pad < 0 {
		return d, fmt.Errorf("tensor: conv geometry k%dx%d s%d p%d: kernel and stride must be >= 1, pad >= 0",
			kh, kw, stride, pad)
	}
	// Checked before dividing: (in+2·pad−k)/stride truncates a negative
	// numerator up to 0, which would pass as a one-row output.
	if inH+2*pad < kh || inW+2*pad < kw {
		return d, fmt.Errorf("tensor: conv geometry %dx%d k%dx%d s%d p%d: the kernel is larger than the padded plane",
			inH, inW, kh, kw, stride, pad)
	}
	d.OutH = (inH+2*pad-kh)/stride + 1
	d.OutW = (inW+2*pad-kw)/stride + 1
	return d, nil
}

// ColRows returns the number of rows of the im2col matrix (inC*kh*kw).
func (d ConvDims) ColRows() int { return d.InC * d.KH * d.KW }

// ColCols returns the number of columns of the im2col matrix (outH*outW).
func (d ConvDims) ColCols() int { return d.OutH * d.OutW }

// Im2Col expands one image (flat CHW slice `img`) into the column matrix
// `col` of shape [inC*kh*kw, outH*outW], so that convolution becomes a
// single matrix multiply: W[outC, inC*kh*kw] @ col.
//
// col must have length ColRows()*ColCols(). Out-of-bounds taps (padding)
// are written as zeros: per (channel, tap) row the padded margins are cleared
// and the valid span — tapOyRange × tapOxRange, as in the plane kernels — is
// copied without a bounds test per element. At column stride 2 with the
// vector kernels live the span is one vec.Gather2 call.
func Im2Col(col, img []float32, d ConvDims) {
	if len(col) != d.ColRows()*d.ColCols() {
		panic(fmt.Sprintf("tensor: Im2Col col size %d, want %d", len(col), d.ColRows()*d.ColCols()))
	}
	if len(img) != d.InC*d.InH*d.InW {
		panic(fmt.Sprintf("tensor: Im2Col img size %d, want %d", len(img), d.InC*d.InH*d.InW))
	}
	cols := d.ColCols()
	gather := vec.Live && d.StrideW == 2
	row := 0
	for c := 0; c < d.InC; c++ {
		chanBase := c * d.InH * d.InW
		for ky := 0; ky < d.KH; ky++ {
			oyLo, oyHi := d.tapOyRange(ky)
			for kx := 0; kx < d.KW; kx++ {
				dst := col[row*cols : (row+1)*cols]
				row++
				oxLo, oxHi := d.tapOxRange(kx)
				if oyLo >= oyHi || oxLo >= oxHi {
					clear(dst) // the tap never lands inside the image
					continue
				}
				clear(dst[:oyLo*d.OutW])
				clear(dst[oyHi*d.OutW:])
				for oy := oyLo; oy < oyHi; oy++ {
					drow := dst[oy*d.OutW : (oy+1)*d.OutW]
					for ox := 0; ox < oxLo; ox++ { // at most PadW elements: a loop beats a memclr call
						drow[ox] = 0
					}
					for ox := oxHi; ox < len(drow); ox++ {
						drow[ox] = 0
					}
					if gather {
						continue // the span goes in one call below
					}
					ibase := chanBase + (oy*d.StrideH-d.PadH+ky)*d.InW - d.PadW + kx
					if d.StrideW == 1 {
						copy(drow[oxLo:oxHi], img[ibase+oxLo:ibase+oxHi])
						continue
					}
					ii := ibase + oxLo*d.StrideW
					for ox := oxLo; ox < oxHi; ox++ {
						drow[ox] = img[ii]
						ii += d.StrideW
					}
				}
				if gather {
					at := chanBase + (oyLo*d.StrideH-d.PadH+ky)*d.InW - d.PadW + kx + 2*oxLo
					vec.Gather2(dst[oyLo*d.OutW+oxLo:], d.OutW, img[at:], d.StrideH*d.InW, oyHi-oyLo, oxHi-oxLo)
				}
			}
		}
	}
}

// Col2Im scatters the column matrix back into an image, accumulating
// overlapping contributions: the adjoint of Im2Col, used for convolution's
// input gradient. img is NOT zeroed first. For every (channel, tap) row of
// col it takes the ox range whose target column lands inside the image
// (tapOxRange), so the inner loop needs no per-element bounds check. A
// pixel's contributions arrive in (ky, kx, oy, ox) order.
func Col2Im(img, col []float32, d ConvDims) {
	cols := d.ColCols()
	row := 0
	for c := 0; c < d.InC; c++ {
		chanBase := c * d.InH * d.InW
		for ky := 0; ky < d.KH; ky++ {
			for kx := 0; kx < d.KW; kx++ {
				src := col[row*cols : (row+1)*cols]
				row++
				oxLo, oxHi := d.tapOxRange(kx)
				if oxLo >= oxHi {
					continue
				}
				for oy := 0; oy < d.OutH; oy++ {
					iy := oy*d.StrideH - d.PadH + ky
					if iy < 0 || iy >= d.InH {
						continue
					}
					rowBase := chanBase + iy*d.InW - d.PadW + kx
					srcRow := src[oy*d.OutW : oy*d.OutW+d.OutW]
					for ox := oxLo; ox < oxHi; ox++ {
						img[rowBase+ox*d.StrideW] += srcRow[ox]
					}
				}
			}
		}
	}
}

// tapRange returns the output interval [lo, hi) along one axis whose tap k
// stays inside the input: 0 <= o*stride - pad + k < in, clipped to [0, out).
func tapRange(k, pad, stride, in, out int) (lo, hi int) {
	hi = out
	if num := pad - k; num > 0 {
		lo = ceilDiv(num, stride)
	}
	if num := in + pad - k; num > 0 {
		hi = min(hi, ceilDiv(num, stride))
	} else {
		hi = 0
	}
	return lo, hi
}

// ceilDiv is ⌈num/stride⌉ for num > 0. The plane kernels ask per tap, and a
// 64-bit divide costs more than a short tap's arithmetic, so the two strides
// in use take no division.
func ceilDiv(num, stride int) int {
	switch stride {
	case 1:
		return num
	case 2:
		return (num + 1) >> 1
	}
	return (num + stride - 1) / stride
}

// tapOxRange is the ox interval whose tap column kx stays inside the image.
// The three direct plane kernels share it, so their inner loops need no
// bounds check. (Pointer receivers on the plane helpers: a value receiver
// copies the 11-word ConvDims at every inlined call inside the tap loop, which
// measured 5–20 % on DepthwiseConvPlane.)
func (d *ConvDims) tapOxRange(kx int) (lo, hi int) {
	return tapRange(kx, d.PadW, d.StrideW, d.InW, d.OutW)
}

// tapOyRange is the oy interval whose tap row ky stays inside the image; the
// weight gradient's tap dots walk it, and the stride-2 im2col gather sweeps
// it as the rows of one strided 2-D call per tap.
func (d *ConvDims) tapOyRange(ky int) (lo, hi int) {
	return tapRange(ky, d.PadH, d.StrideH, d.InH, d.OutH)
}

// checkPlanes panics unless d is a single-channel geometry and the image,
// output and tap slices of a plane kernel hold exactly planes of its planes.
func (d *ConvDims) checkPlanes(kernel string, img, out, taps []float32, planes int) {
	if d.InC != 1 || len(img) != planes*d.InH*d.InW || len(out) != planes*d.OutH*d.OutW || len(taps) != planes*d.KH*d.KW {
		panic(fmt.Sprintf("tensor: %s: InC %d with img %d, out %d, taps %d; want InC 1 with %d planes of %d, %d, %d",
			kernel, d.InC, len(img), len(out), len(taps), planes, d.InH*d.InW, d.OutH*d.OutW, d.KH*d.KW))
	}
}

// DepthwiseConvPlane convolves ONE channel plane directly, without the
// im2col lowering, and applies the conv epilogue: y[OutH*OutW] =
// act(w[KH*KW] ⊛ img[InH*InW] + bias) for a d with InC == 1, act the
// identity or (hswish) hard-swish.
//
// Every output pixel is a sum from +0 over its taps in ascending (ky, kx)
// order — the same per-target order as the im2col matmul, whose skipped
// zero-padding and zero-weight products are exact no-ops — so the
// convolution is bit-identical to Im2Col + MatMulSlices on the same plane,
// and the epilogue to that matmul's bias add and activation sweep.
// Depthwise convolutions use it (and the two gradient siblings below) in
// training and inference alike: their im2col copy costs more than the
// arithmetic.
//
// With the vector kernels live a 3×3 kernel at column stride 1 or 2 — every
// depthwise layer of the models — runs vec.Depthwise3x3: eight output pixels
// per register, all nine taps added while the sum stays in a register, the
// epilogue before the one store. Everything else runs the Go loop: tap-outer,
// each tap one bounds-free strided AXPY over the output, then BiasAct.
//
// The bit-identity of all three plane kernels holds for finite inputs: a
// skipped term is a ±0 add onto a sum that started at +0, the same zero-skip
// convention as the oracle matmul kernels' av != 0 test, while an Inf or NaN
// operand would have turned that skipped 0·Inf into a NaN.
func DepthwiseConvPlane(y, img, w []float32, d ConvDims, bias float32, hswish bool) {
	d.checkPlanes("DepthwiseConvPlane", img, y, w, 1)
	if vec.Live && d.KH == 3 && d.KW == 3 && d.StrideW <= 2 {
		vec.Depthwise3x3(y, img, w, d.OutH, d.OutW, d.InH, d.InW, d.StrideH, d.StrideW, d.PadH, d.PadW, bias, hswish)
		return
	}
	clear(y)
	t := 0
	for ky := 0; ky < d.KH; ky++ {
		for kx := 0; kx < d.KW; kx++ {
			wt := w[t]
			t++
			if wt == 0 {
				continue // exact no-op, as in the matmul kernel's zero skip
			}
			oxLo, oxHi := d.tapOxRange(kx)
			if oxLo >= oxHi {
				continue
			}
			for oy := 0; oy < d.OutH; oy++ {
				iy := oy*d.StrideH - d.PadH + ky
				if iy < 0 || iy >= d.InH {
					continue
				}
				yrow := y[oy*d.OutW : (oy+1)*d.OutW]
				ibase := iy*d.InW - d.PadW + kx
				if d.StrideW == 1 {
					irow := img[ibase+oxLo : ibase+oxHi]
					dst := yrow[oxLo : oxLo+len(irow)]
					for j, v := range irow {
						dst[j] += wt * v
					}
				} else {
					for ox := oxLo; ox < oxHi; ox++ {
						yrow[ox] += wt * img[ibase+ox*d.StrideW]
					}
				}
			}
		}
	}
	BiasAct(y, bias, hswish)
}

// DepthwiseGradWScratch is the scratch length DepthwiseConvPlaneGradW takes
// on d's planes: vec.GradW3x3's position-major copy of eight planes for a 3×3
// kernel, nothing otherwise.
func (d *ConvDims) DepthwiseGradWScratch() int {
	if d.KH != 3 || d.KW != 3 {
		return 0
	}
	return vec.GradW3x3Scratch(d.OutH, d.OutW, d.InH, d.InW)
}

// DepthwiseConvPlaneGradW accumulates the weight gradients of a sample's
// channel planes directly, for a d with InC == 1: plane c's taps
// dw[c·KH·KW + t] += Σ dy_c[oy,ox]·img_c[tap t's shifted pixel], with len(dw)
// deciding how many planes dy and img hold. Each tap is one dot product held
// in a single accumulator that starts at +0 and runs over the output
// positions in ascending order — the order of the lowered dW += dy @ colᵀ,
// whose padding columns only contribute ±0 — so the result is bit-identical
// to Im2Col + MatMulTransBAccSlices on every plane.
//
// One accumulator per tap is one floating-point dependency chain per tap, and
// the taps and planes are independent targets. The Go loop walks each plane
// once per three neighbouring taps of a kernel row (tapDot3), three chains
// side by side, and takes the last KW mod 3 taps of a row one by one. With
// the vector kernels live a 3×3 kernel at strides 1 and 2 — every depthwise
// layer of the models — takes vec.GradW3x3: eight planes in the lanes and one
// register per tap, nine chains, after a copy of the planes into scratch
// (DepthwiseGradWScratch elements; the Go loop needs none).
func DepthwiseConvPlaneGradW(dw, dy, img, scratch []float32, d ConvDims) {
	planes := len(dw) / (d.KH * d.KW)
	d.checkPlanes("DepthwiseConvPlaneGradW", img, dy, dw, planes)
	if vec.Live && d.KH == 3 && d.KW == 3 && d.StrideH <= 2 && d.StrideW <= 2 {
		vec.GradW3x3(dw, dy, img, scratch, planes, d.OutH, d.OutW, d.InH, d.InW, d.StrideH, d.StrideW, d.PadH, d.PadW)
		return
	}
	taps, in, out := d.KH*d.KW, d.InH*d.InW, d.OutH*d.OutW
	for c := 0; c < planes; c++ {
		d.planeGradW(dw[c*taps:(c+1)*taps], dy[c*out:(c+1)*out], img[c*in:(c+1)*in])
	}
}

// planeGradW is DepthwiseConvPlaneGradW's Go loop on one plane.
func (d *ConvDims) planeGradW(dw, dy, img []float32) {
	t := 0
	for ky := 0; ky < d.KH; ky++ {
		kx := 0
		for ; kx+3 <= d.KW; kx += 3 {
			s0, s1, s2 := d.tapDot3(dy, img, ky, kx)
			dw[t] += s0
			dw[t+1] += s1
			dw[t+2] += s2
			t += 3
		}
		for ; kx < d.KW; kx++ {
			dw[t] += d.tapDot(dy, img, ky, kx)
			t++
		}
	}
}

// tapDot is tap (ky, kx)'s dot product of dy with the shifted plane: one
// accumulator from +0 over the output positions in ascending order. A tap
// that never lands inside the image returns that +0.
func (d *ConvDims) tapDot(dy, img []float32, ky, kx int) float32 {
	oxLo, oxHi := d.tapOxRange(kx)
	if oxLo >= oxHi {
		return 0
	}
	oyLo, oyHi := d.tapOyRange(ky)
	var s float32
	for oy := oyLo; oy < oyHi; oy++ {
		at := (oy*d.StrideH-d.PadH+ky)*d.InW - d.PadW + kx
		s = tapRowDot(s, dy[oy*d.OutW+oxLo:oy*d.OutW+oxHi], img, at+oxLo*d.StrideW, d.StrideW)
	}
	return s
}

// tapRowDot continues one tap's accumulator s over a run of one output row:
// s += dy[j]·img[at + j·step], j ascending.
func tapRowDot(s float32, dy, img []float32, at, step int) float32 {
	for _, g := range dy {
		s += g * img[at]
		at += step
	}
	return s
}

// tapRowDot3 is tapRowDot for three taps one pixel apart:
// s_c += dy[j]·img[at + c + j·step] for c < 3, j ascending in every chain.
// (Not inlined: inside tapDot3 the loop's eleven live values spill.)
//
//go:noinline
func tapRowDot3(s0, s1, s2 float32, dy, img []float32, at, step int) (float32, float32, float32) {
	for _, g := range dy {
		s0 += g * img[at]
		s1 += g * img[at+1]
		s2 += g * img[at+2]
		at += step
	}
	return s0, s1, s2
}

// tapDot3 is tapDot for the three taps (ky, kx), (ky, kx+1), (ky, kx+2) in one
// walk over the plane. Along the columns [c0, c1) of an output row where all
// three land inside the image, a position feeds the three accumulators from
// three neighbouring pixels; the columns where only the later taps (left of
// c0) or the earlier ones (right of c1) are inside go tap by tap, so each
// tap still meets its own positions in ascending (oy, ox) order.
func (d *ConvDims) tapDot3(dy, img []float32, ky, kx int) (s0, s1, s2 float32) {
	// A tap range's lo and hi both fall as kx rises.
	lo0, hi0 := d.tapOxRange(kx)
	lo1, hi1 := d.tapOxRange(kx + 1)
	lo2, hi2 := d.tapOxRange(kx + 2)
	c0 := min(lo0, hi0) // an empty range may start past the row
	c1 := max(c0, hi2)
	oyLo, oyHi := d.tapOyRange(ky)
	sw := d.StrideW
	for oy := oyLo; oy < oyHi; oy++ {
		dyrow := dy[oy*d.OutW : (oy+1)*d.OutW]
		at := (oy*d.StrideH-d.PadH+ky)*d.InW - d.PadW + kx // tap kx's pixel at ox = 0
		if l, h := lo1, min(hi1, c0); l < h {
			s1 = tapRowDot(s1, dyrow[l:h], img, at+1+l*sw, sw)
		}
		if l, h := lo2, min(hi2, c0); l < h {
			s2 = tapRowDot(s2, dyrow[l:h], img, at+2+l*sw, sw)
		}
		s0, s1, s2 = tapRowDot3(s0, s1, s2, dyrow[c0:c1], img, at+c0*sw, sw)
		if l, h := c1, hi0; l < h {
			s0 = tapRowDot(s0, dyrow[l:h], img, at+l*sw, sw)
		}
		if l, h := max(lo1, c1), hi1; l < h {
			s1 = tapRowDot(s1, dyrow[l:h], img, at+1+l*sw, sw)
		}
	}
	return s0, s1, s2
}

// DepthwiseConvPlaneGradX accumulates the input gradients of a sample's
// channel planes directly, for a d with InC == 1: plane c's pixels
// dimg_c[tap t's shifted pixel] += w_c[t]·dy_c[oy,ox], with len(w) deciding
// how many planes dimg and dy hold. The Go loop is tap-outer, one bounds-free
// AXPY per tap with the taps ascending, so a pixel receives its contributions
// in the same (ky, kx, oy, ox) order as MatMulTransAAccSlices + Col2Im on the
// plane, and the result is bit-identical to the lowered path. Like Col2Im it
// accumulates: dimg is NOT zeroed first.
//
// With the vector kernels live a 3×3 kernel at strides 1 and 2 — every
// depthwise layer of the models — runs vec.GradX3x3 over all the planes: the
// gather form, eight input pixels per register, each taking its taps in that
// same ascending order while its sum stays in a register, and one store. Its
// bits are the Go loop's for every dimg value arithmetic can leave; a
// signalling NaN the caller put in dimg may come back quieted.
func DepthwiseConvPlaneGradX(dimg, dy, w []float32, d ConvDims) {
	planes := len(w) / (d.KH * d.KW)
	d.checkPlanes("DepthwiseConvPlaneGradX", dimg, dy, w, planes)
	if vec.Live && d.KH == 3 && d.KW == 3 && d.StrideH <= 2 && d.StrideW <= 2 {
		vec.GradX3x3(dimg, dy, w, planes, d.OutH, d.OutW, d.InH, d.InW, d.StrideH, d.StrideW, d.PadH, d.PadW)
		return
	}
	taps, in, out := d.KH*d.KW, d.InH*d.InW, d.OutH*d.OutW
	for c := 0; c < planes; c++ {
		d.planeGradX(dimg[c*in:(c+1)*in], dy[c*out:(c+1)*out], w[c*taps:(c+1)*taps])
	}
}

// planeGradX is DepthwiseConvPlaneGradX's Go loop on one plane.
func (d *ConvDims) planeGradX(dimg, dy, w []float32) {
	t := 0
	for ky := 0; ky < d.KH; ky++ {
		for kx := 0; kx < d.KW; kx++ {
			wt := w[t]
			t++
			if wt == 0 {
				continue // the lowered dcol row is all +0: an exact no-op
			}
			oxLo, oxHi := d.tapOxRange(kx)
			if oxLo >= oxHi {
				continue
			}
			for oy := 0; oy < d.OutH; oy++ {
				iy := oy*d.StrideH - d.PadH + ky
				if iy < 0 || iy >= d.InH {
					continue
				}
				dyrow := dy[oy*d.OutW+oxLo : oy*d.OutW+oxHi]
				ibase := iy*d.InW - d.PadW + kx
				if d.StrideW == 1 {
					drow := dimg[ibase+oxLo : ibase+oxHi]
					for j, g := range dyrow {
						drow[j] += wt * g
					}
				} else {
					ii := ibase + oxLo*d.StrideW
					for _, g := range dyrow {
						dimg[ii] += wt * g
						ii += d.StrideW
					}
				}
			}
		}
	}
}
