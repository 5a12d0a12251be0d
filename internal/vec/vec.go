package vec

import "fmt"

// Live routes tensor's and nn's kernels onto the routines of this package. It
// starts as the probe's answer; only tests change it.
var Live = available

// short panics unless an operand of routine (a slice length, or a stride)
// covers the need elements the routine will touch.
func short(routine string, need, have int) {
	if have < need {
		panic(fmt.Sprintf("vec: %s needs %d elements, %d is too short", routine, need, have))
	}
}

// Act is the activation Gemm applies to a finished sum before its store.
type Act uint8

const (
	ActIdentity  Act = iota
	ActReLU          // v if v > 0, else +0 (NaN and −0 included)
	ActHardSwish     // v·hardSigmoid(v)
)

// Gemm computes out[i·ldc+j] = act(init + Σ_x a[i·ars+x·acs]·b[x·ldb+j] +
// bias[i]) for i < m, j < n: init is +0, or out's own element when acc; the
// terms go in ascending x, skipping a == ±0; a nil bias adds nothing. Each
// output element is written once. (ars, acs) = (k, 1) is a @ b; (1, m) reads
// a transposed in place.
func Gemm(out []float32, ldc int, a []float32, ars, acs int, b []float32, ldb, m, n, k int, acc bool, bias []float32, act Act) {
	if m <= 0 || n <= 0 {
		return
	}
	short("matmul out stride", n, ldc)
	short("matmul out", (m-1)*ldc+n, len(out))
	var bp *float32
	if bias != nil {
		short("matmul bias", m, len(bias))
		bp = &bias[0]
	}
	if k <= 0 {
		// The routine takes k ≥ 1: hand it one +0 term per row, which its ±0
		// skip drops without reading b, so what is stored is act(init + bias).
		var zero float32
		gemm(&out[0], ldc, &zero, 0, 0, &out[0], 0, m, n, 1, bp, acc, act)
		return
	}
	short("matmul b stride", n, ldb)
	short("matmul a strides", 1, min(ars, acs))
	short("matmul a", (m-1)*ars+(k-1)*acs+1, len(a))
	short("matmul b", (k-1)*ldb+n, len(b))
	gemm(&out[0], ldc, &a[0], ars, acs, &b[0], ldb, m, n, k, bp, acc, act)
}

// AxpyPlane computes dst[r·dstStride+j] += w·src[r·srcStride+j] for r < rows,
// j < n: one depthwise tap swept over a plane.
func AxpyPlane(dst []float32, dstStride int, src []float32, srcStride int, w float32, rows, n int) {
	if rows <= 0 || n <= 0 {
		return
	}
	short("plane axpy dst stride", n, dstStride)
	short("plane axpy dst", (rows-1)*dstStride+n, len(dst))
	short("plane axpy src stride", n, srcStride)
	short("plane axpy src", (rows-1)*srcStride+n, len(src))
	axpyPlane(&dst[0], dstStride, &src[0], srcStride, w, rows, n)
}

// Gather2 copies dst[r·dstStride+j] = src[r·srcStride+2j] for r < rows,
// j < n: the rows of one (channel, tap) row of a stride-2 im2col.
func Gather2(dst []float32, dstStride int, src []float32, srcStride int, rows, n int) {
	if rows <= 0 || n <= 0 {
		return
	}
	short("stride-2 gather dst stride", n, dstStride)
	short("stride-2 gather dst", (rows-1)*dstStride+n, len(dst))
	short("stride-2 gather src stride", 2*n-1, srcStride)
	short("stride-2 gather src", (rows-1)*srcStride+2*n-1, len(src))
	gather2(&dst[0], dstStride, &src[0], srcStride, rows, n)
}

// AxpyScatter2 computes dst[r·dstStride+2j] += w·src[r·srcStride+j] for
// r < rows, j < n: one tap of a stride-2 depthwise input gradient. The odd
// elements of dst keep their bits.
func AxpyScatter2(dst []float32, dstStride int, src []float32, srcStride int, w float32, rows, n int) {
	if rows <= 0 || n <= 0 {
		return
	}
	short("stride-2 scatter dst stride", 2*n-1, dstStride)
	short("stride-2 scatter dst", (rows-1)*dstStride+2*n-1, len(dst))
	short("stride-2 scatter src stride", n, srcStride)
	short("stride-2 scatter src", (rows-1)*srcStride+n, len(src))
	axpyScatter2(&dst[0], dstStride, &src[0], srcStride, w, rows, n)
}

// GradW3x3 accumulates one plane's 3×3 depthwise weight gradient,
// dw[t] += Σ dy·(tap t's pixel) with every tap's sum from +0 in ascending
// (oy, ox) order: tensor.DepthwiseConvPlaneGradW's bits with the nine taps in
// lanes. The plane is inH×inW, the output outH×outW.
func GradW3x3(dw, dy, img []float32, outH, outW, inH, inW, strideH, strideW, padH, padW int) {
	if outH <= 0 || outW <= 0 {
		return
	}
	short("3x3 weight gradient geometry", 1, min(inH, inW, strideH, strideW))
	short("3x3 weight gradient dw", 9, len(dw))
	short("3x3 weight gradient dy", outH*outW, len(dy))
	short("3x3 weight gradient img", inH*inW, len(img))
	var acc [12]float32 // kernel row ky in lanes 4ky .. 4ky+2
	gradW3x3(&acc[0], &dy[0], &img[0], outH, outW, inH, inW, strideH, strideW, padH, padW)
	for ky := 0; ky < 3; ky++ {
		for kx := 0; kx < 3; kx++ {
			dw[ky*3+kx] += acc[ky*4+kx]
		}
	}
}

// Depthwise3x3 computes one plane's 3×3 depthwise forward with its epilogue,
// y = act(Σ_t w[t]·(tap t's pixel) + bias) at every output position, each
// sum from +0 over the taps that land inside the image and have w[t] ≠ 0, in
// ascending t; act is the identity or hard-swish. These are the bits of
// tensor.DepthwiseConvPlane's tap loop followed by BiasAct, with eight output
// positions in lanes. The plane is inH×inW, the output outH×outW, and strideW
// is 1 or 2.
func Depthwise3x3(y, img, w []float32, outH, outW, inH, inW, strideH, strideW, padH, padW int, bias float32, hswish bool) {
	if outH <= 0 || outW <= 0 {
		return
	}
	if strideW != 1 && strideW != 2 {
		panic(fmt.Sprintf("vec: 3x3 depthwise column stride %d, want 1 or 2", strideW))
	}
	short("3x3 depthwise geometry", 1, min(inH, inW, strideH))
	short("3x3 depthwise w", 9, len(w))
	short("3x3 depthwise y", outH*outW, len(y))
	short("3x3 depthwise img", inH*inW, len(img))
	live := 0 // bit t: tap t is not skipped
	for t, v := range w[:9] {
		if v != 0 {
			live |= 1 << t
		}
	}
	depthwise3x3(&y[0], &img[0], &w[0], outH, outW, inH, inW, strideH, strideW, padH, padW, live, bias, hswish)
}

// DotMinCols is the narrowest output DotTransB takes: its lanes lie across
// eight output columns.
const DotMinCols = 8

// DotTransB computes out[i·n+j] (+)= Σ_x a[i·k+x]·b[j·k+x] for i < m,
// j < n ≥ DotMinCols: one accumulator per target from +0, x ascending,
// nothing skipped, then the single add (acc) or store into out.
func DotTransB(out, a, b []float32, m, k, n int, acc bool) {
	if m <= 0 || n <= 0 {
		return
	}
	short("matmul-transB columns", DotMinCols, n)
	short("matmul-transB depth", 0, k)
	short("matmul-transB out", m*n, len(out))
	short("matmul-transB a", m*k, len(a))
	short("matmul-transB b", n*k, len(b))
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
	dotTransB(&out[0], &a[0], &b[0], m, k, n, acc)
}

// FoldScaled computes dst[j] += w·float64(src[j]) for the first len(src)&^3
// elements, every element its own target, and returns that count: the Go
// caller folds the rest.
func FoldScaled(dst []float64, src []float32, w float64) int {
	n := len(src) &^ 3
	if n == 0 {
		return 0
	}
	short("fold dst", n, len(dst))
	foldScaled(&dst[0], &src[0], w, n)
	return n
}

// SqDist returns Σ_j (float64(a[j]) − float64(b[j]))² over the first
// len(a)&^3 elements, summed in LANE order (sixteen interleaved chains folded
// pairwise), and that count. Its terms are the serial chain's bits, its sum
// is not; rule 3 of the package doc says who may call it.
func SqDist(a, b []float32) (float64, int) {
	n := len(a) &^ 3
	if n == 0 {
		return 0, 0
	}
	short("squared distance b", n, len(b))
	return sqDist(&a[0], &b[0], n), n
}

// The training sweeps of internal/nn. The elementwise ones take their lanes
// across elements; the batch-norm reductions across BNChannels channels.

// HardSwish computes y[i] = x[i]·hardSigmoid(x[i]) over len(x) elements.
func HardSwish(y, x []float32) {
	if len(x) == 0 {
		return
	}
	short("hard-swish", len(x), len(y))
	hardSwish(&y[0], &x[0], len(x))
}

// HardSwishGrad computes dx[i] = dy[i]·d/dx[x·hs(x)] over len(x) elements.
func HardSwishGrad(dx, dy, x []float32) {
	if len(x) == 0 {
		return
	}
	short("hard-swish gradient", len(x), min(len(dx), len(dy)))
	hardSwishGrad(&dx[0], &dy[0], &x[0], len(x))
}

// BiasAct computes y[r·n+j] = act(y[r·n+j] + bias[r]) for r < rows, j < n,
// act the identity or hard-swish: the epilogue of a conv plane that no GEMM
// stores.
func BiasAct(y []float32, rows, n int, bias []float32, hswish bool) {
	if rows <= 0 || n <= 0 {
		return
	}
	short("bias add", rows*n, len(y))
	short("bias add (bias)", rows, len(bias))
	biasAct(&y[0], rows, n, &bias[0], hswish)
}

// ScaleRows computes y[r·n+j] = x[r·n+j]·z[r] for r < rows, j < n: the
// squeeze-excite rescale of rows planes of n elements.
func ScaleRows(y, x, z []float32, rows, n int) {
	if rows <= 0 || n <= 0 {
		return
	}
	short("row scale", rows*n, min(len(y), len(x)))
	short("row scale (scales)", rows, len(z))
	scaleRows(&y[0], &x[0], &z[0], rows, n)
}

// Add computes out[i] = a[i] + b[i] over len(a) elements: the identity-skip
// residual sum.
func Add(out, a, b []float32) {
	if len(a) == 0 {
		return
	}
	short("add", len(a), min(len(out), len(b)))
	add(&out[0], &a[0], &b[0], len(a))
}

// BNNormalize writes xhat = (x−mean)·inv and out = g·xhat + b for one
// channel: rows planes of n elements, stride apart.
func BNNormalize(out, xhat, x []float32, stride, rows, n int, mean, inv, g, b float32) {
	if rows <= 0 || n <= 0 {
		return
	}
	short("batch-norm normalise stride", n, stride)
	short("batch-norm normalise", (rows-1)*stride+n, min(len(out), len(xhat), len(x)))
	bnNormalize(&out[0], &xhat[0], &x[0], stride, rows, n, mean, inv, g, b)
}

// BNGradX writes one channel's batch-norm input gradient
// dx = scale·((m·(dy·g) − sDyG) − (xhat·sDyXh)·g) over the same layout.
func BNGradX(dx, dy, xhat []float32, stride, rows, n int, g, scale, m, sDyG, sDyXh float32) {
	if rows <= 0 || n <= 0 {
		return
	}
	short("batch-norm gradient stride", n, stride)
	short("batch-norm gradient", (rows-1)*stride+n, min(len(dx), len(dy), len(xhat)))
	bnGradX(&dx[0], &dy[0], &xhat[0], stride, rows, n, g, scale, m, sDyG, sDyXh)
}

// BNChannels is how many channels one batch-norm reduction folds, one per
// lane.
const BNChannels = 8

// BNSumSq folds sum[c] = Σ x and sq[c] = Σ x·x in float64 for the BNChannels
// channels whose planes of n elements start c·n into x, over rows samples
// stride apart.
func BNSumSq(sum, sq []float64, x []float32, stride, rows, n int) {
	if bnSumsEmpty(sum, sq, rows, n) {
		return
	}
	short("batch-norm sums stride", BNChannels*n, stride)
	short("batch-norm sums", (rows-1)*stride+BNChannels*n, len(x))
	bnSumSq(&sum[0], &sq[0], &x[0], stride, rows, n)
}

// BNSumDot folds sum[c] = Σ a and dot[c] = Σ a·b over the same layout.
func BNSumDot(sum, dot []float64, a, b []float32, stride, rows, n int) {
	if bnSumsEmpty(sum, dot, rows, n) {
		return
	}
	short("batch-norm gradient sums stride", BNChannels*n, stride)
	short("batch-norm gradient sums", (rows-1)*stride+BNChannels*n, min(len(a), len(b)))
	bnSumDot(&sum[0], &dot[0], &a[0], &b[0], stride, rows, n)
}

// bnSumsEmpty checks the BNChannels outputs of each reduction and reports
// whether there is nothing to fold, in which case it leaves them at +0.
func bnSumsEmpty(sum, dot []float64, rows, n int) bool {
	short("batch-norm sums (outputs)", BNChannels, min(len(sum), len(dot)))
	if rows > 0 && n > 0 {
		return false
	}
	clear(sum[:BNChannels])
	clear(dot[:BNChannels])
	return true
}
