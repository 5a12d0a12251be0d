//go:build !amd64 || purego

package nn

// Portable builds carry no vector kernels: tensor.VectorAvailable is false, so
// vecLive can never turn on, and the entries below exist only so the shared
// wrappers in vec.go compile.
const noVec = "nn: vector kernel called in a build without one"

func vecHardSwish(y, x *float32, n int) { panic(noVec) }

func vecHardSwishGrad(dx, dy, x *float32, n int) { panic(noVec) }

func vecBiasAct(y *float32, rows, n int, bias *float32, hswish bool) { panic(noVec) }

func vecBNNormalize(out, xhat, x *float32, stride, rows, n int, mean, inv, gamma, beta float32) {
	panic(noVec)
}

func vecBNGradX(dx, dy, xhat *float32, stride, rows, n int, gamma, scale, m, sDyG, sDyXh float32) {
	panic(noVec)
}

func vecBNSumSq(sum, dot *float64, a *float32, stride, rows, n int) { panic(noVec) }

func vecBNSumDot(sum, dot *float64, a, b *float32, stride, rows, n int) { panic(noVec) }
