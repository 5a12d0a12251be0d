package tensor

import "fmt"

// Vector oracle kernels -------------------------------------------------------
//
// vecLive routes the oracle kernels (matmulAcc, matMulTransAAccRange,
// matMulTransB, the depthwise plane taps at stride 1 and 2, the 3×3 depthwise
// weight gradient) onto the AVX2 routines of vec_amd64.s. It is true exactly
// when the build carries them (amd64 without the purego tag) and the
// CPUID/XGETBV probe passed at init — the program's own choice from the
// machine it runs on, with no flag or environment variable. The routines are bit-identical to the Go loops by construction
// (backend.go states the rule), so vecLive never changes a result; the Go
// loops stay as the portable path and as the reference the differential tests
// compare against by flipping this variable. The aggregation step's sweeps
// at the end of this file are routed too; one of them, SqDistLanes, changes a
// sum — never the decision its caller takes from it.
var vecLive = vecAvailable

// VectorAvailable reports whether this build carries the AVX2 kernels and the
// CPU probe found them runnable — the answer internal/nn's own vector sweeps
// start from. It is read-only: nothing outside the tests switches kernels.
func VectorAvailable() bool { return vecAvailable }

// The wrappers below are the only callers of the assembly. Each returns
// before touching a pointer when a dimension is zero and panics when a slice
// is shorter than the extent the routine will read or write: an undersized
// slice is a bounds-check panic in the Go loops and must not become a silent
// out-of-bounds write here.

// gemmAccVec computes out[i·ldc+j] += Σ_x a[i·ars+x·acs]·b[x·ldb+j] for
// i < m, j < n, x < k ascending, skipping a == ±0 terms. (ars, acs) = (k, 1)
// is a @ b; (1, m) reads a transposed in place.
func gemmAccVec(out []float32, ldc int, a []float32, ars, acs int, b []float32, ldb, m, n, k int) {
	if m <= 0 || n <= 0 || k <= 0 {
		return
	}
	if ldc < n || ldb < n || ars < 1 || acs < 1 ||
		len(out) < (m-1)*ldc+n || len(a) < (m-1)*ars+(k-1)*acs+1 || len(b) < (k-1)*ldb+n {
		panic(fmt.Sprintf("tensor: vector matmul %dx%dx%d: out %d (ld %d), a %d (strides %d,%d), b %d (ld %d) too short",
			m, k, n, len(out), ldc, len(a), ars, acs, len(b), ldb))
	}
	vecGemmAcc(&out[0], ldc, &a[0], ars, acs, &b[0], ldb, m, n, k)
}

// axpyPlaneVec computes dst[r·dstStride+j] += w·src[r·srcStride+j] for
// r < rows, j < n: one depthwise tap swept over a plane.
func axpyPlaneVec(dst []float32, dstStride int, src []float32, srcStride int, w float32, rows, n int) {
	if rows <= 0 || n <= 0 {
		return
	}
	if dstStride < n || srcStride < n ||
		len(dst) < (rows-1)*dstStride+n || len(src) < (rows-1)*srcStride+n {
		panic(fmt.Sprintf("tensor: vector plane axpy %dx%d: dst %d (stride %d), src %d (stride %d) too short",
			rows, n, len(dst), dstStride, len(src), srcStride))
	}
	vecAxpyPlane(&dst[0], dstStride, &src[0], srcStride, w, rows, n)
}

// axpyGather2Vec computes dst[r·dstStride+j] += w·src[r·srcStride+2j] for
// r < rows, j < n: one tap of a stride-2 depthwise forward.
func axpyGather2Vec(dst []float32, dstStride int, src []float32, srcStride int, w float32, rows, n int) {
	if rows <= 0 || n <= 0 {
		return
	}
	if dstStride < n || srcStride < 2*n-1 ||
		len(dst) < (rows-1)*dstStride+n || len(src) < (rows-1)*srcStride+2*n-1 {
		panic(fmt.Sprintf("tensor: vector stride-2 gather %dx%d: dst %d (stride %d), src %d (stride %d) too short",
			rows, n, len(dst), dstStride, len(src), srcStride))
	}
	vecAxpyGather2(&dst[0], dstStride, &src[0], srcStride, w, rows, n)
}

// axpyScatter2Vec computes dst[r·dstStride+2j] += w·src[r·srcStride+j] for
// r < rows, j < n: one tap of a stride-2 depthwise input gradient. The odd
// elements of dst keep their bits.
func axpyScatter2Vec(dst []float32, dstStride int, src []float32, srcStride int, w float32, rows, n int) {
	if rows <= 0 || n <= 0 {
		return
	}
	if dstStride < 2*n-1 || srcStride < n ||
		len(dst) < (rows-1)*dstStride+2*n-1 || len(src) < (rows-1)*srcStride+n {
		panic(fmt.Sprintf("tensor: vector stride-2 scatter %dx%d: dst %d (stride %d), src %d (stride %d) too short",
			rows, n, len(dst), dstStride, len(src), srcStride))
	}
	vecAxpyScatter2(&dst[0], dstStride, &src[0], srcStride, w, rows, n)
}

// gradW3x3Vec accumulates one plane's 3×3 depthwise weight gradient,
// dw[t] += Σ dy·(tap t's pixel) with every tap's sum from +0 in ascending
// (oy, ox) order: DepthwiseConvPlaneGradW's bits with the nine taps in lanes.
func gradW3x3Vec(dw, dy, img []float32, d *ConvDims) {
	if d.OutH <= 0 || d.OutW <= 0 {
		return
	}
	if d.InH < 1 || d.InW < 1 || d.StrideH < 1 || d.StrideW < 1 ||
		len(dw) < 9 || len(dy) < d.OutH*d.OutW || len(img) < d.InH*d.InW {
		panic(fmt.Sprintf("tensor: vector 3x3 weight gradient on %dx%d → %dx%d: dw %d, dy %d, img %d too short",
			d.InH, d.InW, d.OutH, d.OutW, len(dw), len(dy), len(img)))
	}
	var acc [12]float32 // kernel row ky in lanes 4ky .. 4ky+2
	vecGradW3x3(&acc[0], &dy[0], &img[0], d.OutH, d.OutW, d.InH, d.InW, d.StrideH, d.StrideW, d.PadH, d.PadW)
	for ky := 0; ky < 3; ky++ {
		for kx := 0; kx < 3; kx++ {
			dw[ky*3+kx] += acc[ky*4+kx]
		}
	}
}

// vecDotMinCols is the narrowest output the dot-form routine takes: its lanes
// lie across eight output columns.
const vecDotMinCols = 8

// dotTransBVec computes out[i·n+j] (+)= Σ_x a[i·k+x]·b[j·k+x] for i < m,
// j < n ≥ vecDotMinCols: one accumulator per target from +0, x ascending,
// nothing skipped, then the single add (acc) or store into out.
func dotTransBVec(out, a, b []float32, m, k, n int, acc bool) {
	if m <= 0 || n <= 0 {
		return
	}
	if n < vecDotMinCols || k < 0 || len(out) < m*n || len(a) < m*k || len(b) < n*k {
		panic(fmt.Sprintf("tensor: vector matmul-transB %dx%dx%d: out %d, a %d, b %d too short (or n < %d)",
			m, k, n, len(out), len(a), len(b), vecDotMinCols))
	}
	if k == 0 { // every sum is the +0 it started from; += +0 still turns a -0 into +0
		for i := range out[:m*n] {
			if acc {
				out[i] += 0
			} else {
				out[i] = 0
			}
		}
		return
	}
	vecDotTransB(&out[0], &a[0], &b[0], m, k, n, acc)
}

// The aggregation step's float64 sweeps: the accumulator fold and the gate's
// squared distance, once per client update. The Go loops are the whole
// implementation where vecLive is off and the tail (len%4) where it is on.

// FoldScaled computes dst[j] += w·float64(src[j]) for j < len(src). Every
// element is its own target, so the vector form is bit-identical.
func FoldScaled(dst []float64, src []float32, w float64) {
	mustCover("fold", len(src), len(dst))
	if head := len(src) &^ 3; vecLive && head > 0 {
		vecFoldScaled(&dst[0], &src[0], w, head)
		dst, src = dst[head:], src[head:]
	}
	dst = dst[:len(src)]
	for j, v := range src {
		dst[j] += w * float64(v)
	}
}

// mustCover panics unless a sweep's other operand has all n elements.
func mustCover(sweep string, n, have int) {
	if have < n {
		panic(fmt.Sprintf("tensor: %s over %d elements: an operand of %d is too short", sweep, n, have))
	}
}

// SqDist returns ss + Σ_j (float64(a[j]) − float64(b[j]))² as ONE float64
// chain in ascending j, continuing the chain passed in: the serial oracle of
// the validation gate, in every build.
func SqDist(ss float64, a, b []float32) float64 {
	mustCover("squared distance", len(a), len(b))
	b = b[:len(a)]
	for j, v := range a {
		d := float64(v) - float64(b[j])
		ss += d * d
	}
	return ss
}

// SqDistLanes returns ss plus SqDist's terms, bit for bit, summed in LANE
// order (sixteen interleaved chains, folded pairwise) where vecLive is on; it
// is SqDist where it is off. It is the one kernel laned ALONG a reduction,
// under the one rule that allows it: the consumer is a DECISION, and a proven
// guard (fl.updateValid's) sends every input the reassociation could flip
// back to SqDist. Two facts make that guard possible. A term is NaN or +Inf in
// one order iff in every order, and finite terms cannot overflow the sum
// (each is below 2²⁵⁸), so this sum is non-finite iff SqDist's is. And n
// non-negative terms added in any order land within γₙ = n·2⁻⁵³/(1 − n·2⁻⁵³),
// relatively, of their exact sum, so two orders differ by less than
// 2γₙ/(1 − γₙ) of either.
func SqDistLanes(ss float64, a, b []float32) float64 {
	if head := len(a) &^ 3; vecLive && head > 0 && len(b) >= len(a) { // SqDist rejects a short b
		ss += vecSqDist(&a[0], &b[0], head)
		a, b = a[head:], b[head:]
	}
	return SqDist(ss, a, b)
}
