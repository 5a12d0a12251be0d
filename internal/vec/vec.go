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

// gradStrides panics unless both strides of a 3×3 gradient are 1 or 2.
func gradStrides(gradient string, strideH, strideW int) {
	if strideH < 1 || strideH > 2 || strideW < 1 || strideW > 2 {
		panic(fmt.Sprintf("vec: 3x3 %s gradient strides %d×%d, want 1 or 2", gradient, strideH, strideW))
	}
}

// Act is the activation a routine applies to a finished sum before its store
// (Gemm, Depthwise3x3, BiasAct and batch norm's training passes), and the one
// name internal/tensor and internal/nn give an activation.
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

// Im2Col2 writes the stride-2 im2col matrix of one sample, every (channel,
// tap) row in one call: for c < inC, ky < kh, kx < kw, oy < outH, ox < outW,
// col[((c·kh+ky)·kw+kx)·outH·outW + oy·outW + ox] = img[c·inH·inW + iy·inW +
// ix] with iy = oy·strideH − padH + ky and ix = 2·ox − padW + kx, and +0
// where (iy, ix) lies outside the inH×inW plane: tensor.Im2Col's bits at
// column stride 2.
func Im2Col2(col, img []float32, inC, inH, inW, kh, kw, strideH, padH, padW, outH, outW int) {
	if inC <= 0 || kh <= 0 || kw <= 0 || outH <= 0 || outW <= 0 {
		return
	}
	short("stride-2 im2col geometry", 1, min(inH, inW, strideH))
	short("stride-2 im2col col", inC*kh*kw*outH*outW, len(col))
	short("stride-2 im2col img", inC*inH*inW, len(img))
	im2col2(&col[0], &img[0], inC, inH, inW, kh, kw, strideH, padH, padW, outH, outW)
}

// GradX3x3 accumulates the 3×3 depthwise input gradients of planes
// consecutive planes, dimg_c[tap t's pixel] += w[9c+t]·dy_c[oy,ox], in
// gather form: every input pixel takes its in-image taps with w[t] ≠ 0 (NaN
// included) in ascending t, one multiply-add each onto its own value. These
// are the bits of tensor.DepthwiseConvPlaneGradX's tap-outer Go loop, with
// eight input positions in lanes, for every dimg value arithmetic can leave:
// a lane that skips a tap still adds −0 to its pixel, which quiets a
// signalling NaN already in dimg where the Go loop leaves it as it was. A
// plane is inH×inW, its output outH×outW, and both strides are 1 or 2.
func GradX3x3(dimg, dy, w []float32, planes, outH, outW, inH, inW, strideH, strideW, padH, padW int) {
	if planes <= 0 || outH <= 0 || outW <= 0 {
		return
	}
	gradStrides("input", strideH, strideW)
	short("3x3 input gradient geometry", 1, min(inH, inW))
	short("3x3 input gradient w", 9*planes, len(w))
	short("3x3 input gradient dy", planes*outH*outW, len(dy))
	short("3x3 input gradient dimg", planes*inH*inW, len(dimg))
	gradX3x3(&dimg[0], &dy[0], &w[0], planes, outH, outW, inH, inW, strideH, strideW, padH, padW)
}

// gradWPlanes is how many planes one pass of GradW3x3 holds, one per lane.
const gradWPlanes = 8

// GradW3x3Scratch is the scratch GradW3x3 needs for inH×inW planes and an
// outH×outW output: one pass's planes laid out position-major.
func GradW3x3Scratch(outH, outW, inH, inW int) int {
	return gradWPlanes * ((inH*inW+7)&^7 + (outH*outW+7)&^7)
}

// GradW3x3 accumulates the 3×3 depthwise weight gradients of planes
// consecutive planes, dw[9c+t] += Σ dy_c·(plane c's tap-t pixel), every tap's
// sum from +0 in ascending (oy, ox) order: tensor.DepthwiseConvPlaneGradW's
// bits with gradWPlanes planes in lanes and one register per tap. Each pass
// first lays its planes out position-major in scratch (GradW3x3Scratch
// elements). A plane is inH×inW, its output outH×outW, and both strides are
// 1 or 2.
func GradW3x3(dw, dy, img, scratch []float32, planes, outH, outW, inH, inW, strideH, strideW, padH, padW int) {
	if planes <= 0 || outH <= 0 || outW <= 0 {
		return
	}
	gradStrides("weight", strideH, strideW)
	short("3x3 weight gradient geometry", 1, min(inH, inW))
	short("3x3 weight gradient dw", 9*planes, len(dw))
	short("3x3 weight gradient dy", planes*outH*outW, len(dy))
	short("3x3 weight gradient img", planes*inH*inW, len(img))
	short("3x3 weight gradient scratch", GradW3x3Scratch(outH, outW, inH, inW), len(scratch))
	for c := 0; c < planes; c += gradWPlanes {
		gradW3x3(&dw[9*c], &dy[c*outH*outW], &img[c*inH*inW], min(gradWPlanes, planes-c), outH, outW, inH, inW, strideH, strideW, padH, padW, &scratch[0])
	}
}

// Depthwise3x3 computes the 3×3 depthwise forward of planes consecutive
// planes with its epilogue, y_c = act(Σ_t w[9c+t]·(tap t's pixel) + bias[c])
// at every output position of plane c, each sum from +0 over the taps that
// land inside the image and have w[9c+t] ≠ 0, in ascending t. These are the
// bits of tensor.DepthwiseConvPlane's tap loop followed by BiasAct, plane by
// plane, with eight output positions in lanes. A plane is inH×inW, its
// output outH×outW, and strideW is 1 or 2.
//
// What depends only on the geometry is settled once per call: the output
// rows whose three tap rows all lie inside the image, plus at pad 1 the top
// row and (stride 1) the bottom one, which the routine runs with no per-tap
// test on a plane whose nine weights are all live, and whether every store
// is a full eight lanes (outW ≥ 8: a last partial block is recomputed as the
// last eight columns).
func Depthwise3x3(y, img, w, bias []float32, planes, outH, outW, inH, inW, strideH, strideW, padH, padW int, act Act) {
	if planes <= 0 || outH <= 0 || outW <= 0 {
		return
	}
	if strideW != 1 && strideW != 2 {
		panic(fmt.Sprintf("vec: 3x3 depthwise column stride %d, want 1 or 2", strideW))
	}
	short("3x3 depthwise geometry", 1, min(inH, inW, strideH))
	short("3x3 depthwise w", 9*planes, len(w))
	short("3x3 depthwise bias", planes, len(bias))
	short("3x3 depthwise y", planes*outH*outW, len(y))
	short("3x3 depthwise img", planes*inH*inW, len(img))
	// Output rows [rowLo, rowHi) have all three tap rows inside the image:
	// oy·strideH − padH ≥ 0 and oy·strideH − padH + 2 < inH.
	rowLo, rowHi, edges := (padH+strideH-1)/strideH, 0, 0
	if top := inH - 3 + padH; top >= 0 {
		rowHi = min(outH, top/strideH+1)
	}
	switch {
	case rowLo >= rowHi || outW < 8 || strideW == 1 && strideH != 1:
		rowLo, rowHi = outH, outH
	case padH == 1:
		// Row 0 misses only its top tap row, so the fast loop takes it too
		// (edges bit 0): at stride 1 as the top pair, and, when that leaves
		// an odd row count, the bottom row (missing only its bottom tap row)
		// as the bottom pair (bit 1).
		rowLo, edges = 0, 1
		if strideW == 1 && rowHi%2 == 1 && rowHi < outH {
			rowHi, edges = rowHi+1, 3
		}
	}
	depthwise3x3(&y[0], &img[0], &w[0], &bias[0], planes, outH, outW, inH, inW, strideH, strideW, padH, padW, rowLo, rowHi, edges, act)
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

// PlaneSumsMin is the fewest planes PlaneSums takes: its lanes lie across
// eight planes.
const PlaneSumsMin = 8

// PlaneSums computes the sum of each of planes ≥ PlaneSumsMin planes of n
// elements, n apart in a: s_i = Σ_j a[i·n+j], or Σ_j a[i·n+j]·b[i·n+j] when b
// is not nil, each one chain from +0 in ascending j with the running sum the
// first operand of every add and a the first of every multiply (a product
// rounded before its add, no FMA). It stores out[i] = s_i, or adds
// out[i] += s_i when acc: the bits of internal/nn's planeSums Go loop.
func PlaneSums(out, a, b []float32, planes, n int, acc bool) {
	if planes <= 0 {
		return
	}
	short("plane sums planes", PlaneSumsMin, planes)
	short("plane sums out", planes, len(out))
	if n <= 0 { // every sum is the +0 it started from; += +0 still turns a -0 into +0
		for i := range out[:planes] {
			if acc {
				out[i] += 0
			} else {
				out[i] = 0
			}
		}
		return
	}
	short("plane sums a", planes*n, len(a))
	var bp *float32
	if b != nil {
		short("plane sums b", planes*n, len(b))
		bp = &b[0]
	}
	planeSums(&out[0], &a[0], bp, planes, n, acc)
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

// The sweeps of internal/nn's layers and frozen ops. The elementwise ones
// take their lanes across elements; the batch-norm reductions across
// BNChannels channels.

// BiasAct computes y[r·n+j] = act(y[r·n+j] + bias[r]) for r < rows, j < n:
// the epilogue of a conv plane that no GEMM stores.
func BiasAct(y []float32, rows, n int, bias []float32, act Act) {
	if rows <= 0 || n <= 0 {
		return
	}
	short("bias add", rows*n, len(y))
	short("bias add (bias)", rows, len(bias))
	biasAct(&y[0], rows, n, &bias[0], act)
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

// BNNormalize writes one channel's training batch-norm output,
// out = act(g·((x−mean)·inv) + b): rows planes of n elements, stride apart.
// It stores nothing else; BNSumDot and BNGradX recompute x̂ from x.
func BNNormalize(out, x []float32, stride, rows, n int, mean, inv, g, b float32, act Act) {
	if rows <= 0 || n <= 0 {
		return
	}
	short("batch-norm normalise stride", n, stride)
	short("batch-norm normalise", (rows-1)*stride+n, min(len(out), len(x)))
	bnNormalize(&out[0], &x[0], stride, rows, n, mean, inv, g, b, act)
}

// BNGradX writes one channel's batch-norm input gradient over the same layout,
// dx = scale·((m·(dz·g) − sDyG) − (x̂·sDyXh)·g), with x̂ = (x−mean)·inv
// recomputed as BNNormalize computes it. dx may be dz.
func BNGradX(dx, dz, x []float32, stride, rows, n int, mean, inv, g, scale, m, sDyG, sDyXh float32) {
	if rows <= 0 || n <= 0 {
		return
	}
	short("batch-norm gradient stride", n, stride)
	short("batch-norm gradient", (rows-1)*stride+n, min(len(dx), len(dz), len(x)))
	bnGradX(&dx[0], &dz[0], &x[0], stride, rows, n, mean, inv, g, scale, m, sDyG, sDyXh)
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

// BNSumDot is the training backward's reduction over the same layout. Per
// element of channel c it recomputes x̂ = (x−mean[c])·inv[c] and, unless act
// is the identity, z = gamma[c]·x̂ + beta[c] — BNNormalize's operations — and
// stores dz = act′(z)·dy into dz; then it folds sum[c] = Σ dz and
// dot[c] = Σ dz·x̂ in float64. For the identity dz is dy, nothing is stored
// and dz may be nil.
func BNSumDot(sum, dot []float64, dz, dy, x []float32, stride, rows, n int, mean, inv, gamma, beta []float32, act Act) {
	if bnSumsEmpty(sum, dot, rows, n) {
		return
	}
	need := (rows-1)*stride + BNChannels*n
	short("batch-norm gradient sums stride", BNChannels*n, stride)
	short("batch-norm gradient sums", need, min(len(dy), len(x)))
	short("batch-norm gradient sums (channels)", BNChannels, min(len(mean), len(inv), len(gamma), len(beta)))
	dzp := &dy[0]
	if act != ActIdentity {
		short("batch-norm gradient sums (dz)", need, len(dz))
		dzp = &dz[0]
	}
	bnSumDot(&sum[0], &dot[0], dzp, &dy[0], &x[0], stride, rows, n, &mean[0], &inv[0], &gamma[0], &beta[0], act)
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
