//go:build amd64 && !purego

package vec

// available reports whether the CPU and OS this process runs on can execute
// the routines of vec_amd64.s.
var available = detectAVX2()

// detectAVX2 is the standard probe: CPUID.1 must report OSXSAVE and AVX,
// XGETBV(0) must show the OS saving XMM and YMM state, and CPUID.7.0 must
// report AVX2.
func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xgetbv0()&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() uint32

//go:noescape
func gemm(c *float32, ldc int, a *float32, ars, acs int, b *float32, ldb, m, n, k int, bias *float32, acc bool, act Act)

//go:noescape
func dotTransB(out, a, b *float32, m, k, n int, acc bool)

//go:noescape
func im2col2(col, img *float32, inC, inH, inW, kh, kw, strideH, padH, padW, outH, outW int)

//go:noescape
func gradX3x3(dimg, dy, w *float32, planes, outH, outW, inH, inW, strideH, strideW, padH, padW int)

//go:noescape
func depthwise3x3(y, img, w, bias *float32, planes, outH, outW, inH, inW, strideH, strideW, padH, padW, rowLo, rowHi, edges int, act Act)

//go:noescape
func gradW3x3(dw, dy, img *float32, planes, outH, outW, inH, inW, strideH, strideW, padH, padW int, scratch *float32)

//go:noescape
func foldScaled(dst *float64, src *float32, w float64, n int)

//go:noescape
func sqDist(a, b *float32, n int) float64

//go:noescape
func biasAct(y *float32, rows, n int, bias *float32, act Act)

//go:noescape
func scaleRows(y, x, z *float32, rows, n int)

//go:noescape
func add(out, a, b *float32, n int)

//go:noescape
func bnNormalize(out, x *float32, stride, rows, n int, mean, inv, gamma, beta float32, act Act)

//go:noescape
func bnGradX(dx, dz, x *float32, stride, rows, n int, mean, inv, gamma, scale, m, sDyG, sDyXh float32)

//go:noescape
func bnSumSq(sum, dot *float64, a *float32, stride, rows, n int)

//go:noescape
func bnSumDot(sum, dot *float64, dz, dy, x *float32, stride, rows, n int, mean, inv, gamma, beta *float32, act Act)

//go:noescape
func planeSums(out, a, b *float32, planes, n int, acc bool)
