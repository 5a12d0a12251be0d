package nn

import (
	"fmt"

	"heteroswitch/internal/tensor"
)

// Vector elementwise sweeps ---------------------------------------------------
//
// vecLive routes this package's hottest elementwise training sweeps — the
// conv bias add, hard-swish forward and backward, the batch-norm normalise
// and input-gradient passes, and the frozen conv epilogue — onto the AVX2
// routines of vec_amd64.s. Like tensor's switch of the same name it is true
// exactly when the build carries the routines (the two packages share one
// build constraint) and tensor's CPU probe passed, the routines perform the Go
// loops' float32 operations one for one (so flipping it never changes a
// bit), and only tests flip it. Batch norm's float64 reductions stay in Go:
// their order is the result.
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
