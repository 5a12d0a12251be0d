package nn

import (
	"fmt"

	"heteroswitch/internal/tensor"
)

// Vector sweeps ---------------------------------------------------------------
//
// vecLive routes this package's hottest training sweeps — the conv bias add,
// hard-swish forward and backward, the batch-norm reductions, normalise and
// input-gradient passes, and the frozen conv epilogue — onto the AVX2
// routines of vec_amd64.s. Like tensor's switch of the same name it is true
// exactly when the build carries the routines (the two packages share one
// build constraint) and tensor's CPU probe passed, the routines perform the Go
// loops' operations one for one (so flipping it never changes a bit), and
// only tests flip it. The one rule, as in tensor: chains and lanes lie across
// independent targets. An elementwise sweep's targets are its elements; batch
// norm's float64 reductions, whose order is the result, put eight channels in
// the lanes and still fold each channel's elements one at a time.
var (
	vecAvailable = tensor.VectorAvailable()
	vecLive      = vecAvailable
)

// The wrappers are the only callers of the assembly: they return before
// taking a pointer when there is nothing to do and panic when a slice is
// shorter than the extent the routine reads or writes.

// vecShort panics when the shortest slice handed to kernel holds fewer than
// need elements.
func vecShort(kernel string, need, shortest int) {
	if shortest < need {
		panic(fmt.Sprintf("nn: vector %s needs %d elements, a slice of %d is too short", kernel, need, shortest))
	}
}

// planesExtent is the number of elements rows planes of n elements span when
// they start stride apart.
func planesExtent(stride, rows, n int) int {
	if stride < n {
		panic(fmt.Sprintf("nn: vector sweep plane stride %d too short for planes of %d", stride, n))
	}
	return (rows-1)*stride + n
}

// hardSwishVec computes y[i] = x[i]·hardSigmoid(x[i]) over len(x) elements.
func hardSwishVec(y, x []float32) {
	if len(x) == 0 {
		return
	}
	vecShort("hard-swish", len(x), len(y))
	vecHardSwish(&y[0], &x[0], len(x))
}

// hardSwishGradVec computes dx[i] = dy[i]·d/dx[x·hs(x)] over len(x) elements.
func hardSwishGradVec(dx, dy, x []float32) {
	if len(x) == 0 {
		return
	}
	vecShort("hard-swish gradient", len(x), min(len(dx), len(dy)))
	vecHardSwishGrad(&dx[0], &dy[0], &x[0], len(x))
}

// biasActVec computes y[r·n+j] = act(y[r·n+j] + bias[r]) for r < rows, j < n,
// act the identity or hard-swish.
func biasActVec(y []float32, rows, n int, bias []float32, hswish bool) {
	if rows <= 0 || n <= 0 {
		return
	}
	vecShort("bias add", rows*n, len(y))
	vecShort("bias add (bias)", rows, len(bias))
	vecBiasAct(&y[0], rows, n, &bias[0], hswish)
}

// bnNormalizeVec writes xhat = (x−mean)·inv and out = g·xhat + b for one
// channel: rows planes of n elements, stride apart.
func bnNormalizeVec(out, xhat, x []float32, stride, rows, n int, mean, inv, g, b float32) {
	if rows <= 0 || n <= 0 {
		return
	}
	vecShort("batch-norm normalise", planesExtent(stride, rows, n), min(len(out), len(xhat), len(x)))
	vecBNNormalize(&out[0], &xhat[0], &x[0], stride, rows, n, mean, inv, g, b)
}

// bnGradXVec writes one channel's batch-norm input gradient
// dx = scale·((m·(dy·g) − sDyG) − (xhat·sDyXh)·g) over the same layout.
func bnGradXVec(dx, dy, xhat []float32, stride, rows, n int, g, scale, m, sDyG, sDyXh float32) {
	if rows <= 0 || n <= 0 {
		return
	}
	vecShort("batch-norm gradient", planesExtent(stride, rows, n), min(len(dx), len(dy), len(xhat)))
	vecBNGradX(&dx[0], &dy[0], &xhat[0], stride, rows, n, g, scale, m, sDyG, sDyXh)
}

// bnSumSqVec folds sum[c] = Σ x and sq[c] = Σ x·x in float64 for the
// 2·bnTile channels whose planes of n elements start c·n into x, over rows
// samples stride apart.
func bnSumSqVec(sum, sq []float64, x []float32, stride, rows, n int) {
	if bnSumsEmpty(sum, sq, rows, n) {
		return
	}
	vecShort("batch-norm sums", planesExtent(stride, rows, 2*bnTile*n), len(x))
	vecBNSumSq(&sum[0], &sq[0], &x[0], stride, rows, n)
}

// bnSumDotVec folds sum[c] = Σ a and dot[c] = Σ a·b over the same layout.
func bnSumDotVec(sum, dot []float64, a, b []float32, stride, rows, n int) {
	if bnSumsEmpty(sum, dot, rows, n) {
		return
	}
	vecShort("batch-norm gradient sums", planesExtent(stride, rows, 2*bnTile*n), min(len(a), len(b)))
	vecBNSumDot(&sum[0], &dot[0], &a[0], &b[0], stride, rows, n)
}

// bnSumsEmpty checks the 2·bnTile outputs of each reduction and reports
// whether there is nothing to fold, in which case it leaves them at +0.
func bnSumsEmpty(sum, dot []float64, rows, n int) bool {
	vecShort("batch-norm sums (outputs)", 2*bnTile, min(len(sum), len(dot)))
	if rows > 0 && n > 0 {
		return false
	}
	clear(sum[:2*bnTile])
	clear(dot[:2*bnTile])
	return true
}
