//go:build amd64 && !purego

package nn

//go:noescape
func vecHardSwish(y, x *float32, n int)

//go:noescape
func vecHardSwishGrad(dx, dy, x *float32, n int)

//go:noescape
func vecBiasAct(y *float32, rows, n int, bias *float32, hswish bool)

//go:noescape
func vecBNNormalize(out, xhat, x *float32, stride, rows, n int, mean, inv, gamma, beta float32)

//go:noescape
func vecBNGradX(dx, dy, xhat *float32, stride, rows, n int, gamma, scale, m, sDyG, sDyXh float32)

//go:noescape
func vecBNSumSq(sum, dot *float64, a *float32, stride, rows, n int)

//go:noescape
func vecBNSumDot(sum, dot *float64, a, b *float32, stride, rows, n int)
