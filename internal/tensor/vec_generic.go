//go:build !amd64 || purego

package tensor

// Portable builds (any non-amd64 target, or -tags purego) carry no vector
// kernels: vecLive can never turn on, and the entries below exist only so
// the shared wrappers in vec.go compile.
const vecAvailable = false

func vecGemmAcc(c *float32, ldc int, a *float32, ars, acs int, b *float32, ldb, m, n, k int) {
	panic("tensor: vector kernel called in a build without one")
}

func vecAxpyPlane(dst *float32, dstStride int, src *float32, srcStride int, w float32, rows, n int) {
	panic("tensor: vector kernel called in a build without one")
}

func vecDotTransB(out, a, b *float32, m, k, n int, acc bool) {
	panic("tensor: vector kernel called in a build without one")
}

func vecAxpyGather2(dst *float32, dstStride int, src *float32, srcStride int, w float32, rows, n int) {
	panic("tensor: vector kernel called in a build without one")
}

func vecAxpyScatter2(dst *float32, dstStride int, src *float32, srcStride int, w float32, rows, n int) {
	panic("tensor: vector kernel called in a build without one")
}

func vecGradW3x3(acc, dy, img *float32, outH, outW, inH, inW, strideH, strideW, padH, padW int) {
	panic("tensor: vector kernel called in a build without one")
}

func vecFoldScaled(dst *float64, src *float32, w float64, n int) {
	panic("tensor: vector kernel called in a build without one")
}

func vecSqDist(a, b *float32, n int) float64 {
	panic("tensor: vector kernel called in a build without one")
}
