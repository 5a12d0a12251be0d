//go:build !amd64 || purego

package vec

// Portable builds (any non-amd64 target, or -tags purego) carry no routines:
// Live starts false, and the entries below exist only so the wrappers in
// vec.go compile.
const available = false

const none = "vec: vector routine called in a build without one"

func gemm(c *float32, ldc int, a *float32, ars, acs int, b *float32, ldb, m, n, k int, bias *float32, acc bool, act Act) {
	panic(none)
}

func dotTransB(out, a, b *float32, m, k, n int, acc bool) { panic(none) }

func im2col2(col, img *float32, inC, inH, inW, kh, kw, strideH, padH, padW, outH, outW int) {
	panic(none)
}

func gradX3x3(dimg, dy, w *float32, planes, outH, outW, inH, inW, strideH, strideW, padH, padW int) {
	panic(none)
}

func depthwise3x3(y, img, w, bias *float32, planes, outH, outW, inH, inW, strideH, strideW, padH, padW, rowLo, rowHi, edges int, act Act) {
	panic(none)
}

func gradW3x3(dw, dy, img *float32, planes, outH, outW, inH, inW, strideH, strideW, padH, padW int, scratch *float32) {
	panic(none)
}

func foldScaled(dst *float64, src *float32, w float64, n int) { panic(none) }

func sqDist(a, b *float32, n int) float64 { panic(none) }

func biasAct(y *float32, rows, n int, bias *float32, act Act) { panic(none) }

func scaleRows(y, x, z *float32, rows, n int) { panic(none) }

func add(out, a, b *float32, n int) { panic(none) }

func bnNormalize(out, x *float32, stride, rows, n int, mean, inv, gamma, beta float32, act Act) {
	panic(none)
}

func bnGradX(dx, dz, x *float32, stride, rows, n int, mean, inv, gamma, scale, m, sDyG, sDyXh float32) {
	panic(none)
}

func bnSumSq(sum, dot *float64, a *float32, stride, rows, n int) { panic(none) }

func bnSumDot(sum, dot *float64, dz, dy, x *float32, stride, rows, n int, mean, inv, gamma, beta *float32, act Act) {
	panic(none)
}

func planeSums(out, a, b *float32, planes, n int, acc bool) { panic(none) }
