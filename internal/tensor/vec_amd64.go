//go:build amd64 && !purego

package tensor

// vecAvailable reports whether this build carries the AVX2 kernels of
// vec_amd64.s AND the CPU and OS it runs on can execute them. It is the one
// selection the program makes; there is no flag and no environment variable.
var vecAvailable = detectAVX2()

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
func vecGemmAcc(c *float32, ldc int, a *float32, ars, acs int, b *float32, ldb, m, n, k int)

//go:noescape
func vecAxpyPlane(dst *float32, dstStride int, src *float32, srcStride int, w float32, rows, n int)

//go:noescape
func vecDotTransB(out, a, b *float32, m, k, n int, acc bool)

//go:noescape
func vecAxpyGather2(dst *float32, dstStride int, src *float32, srcStride int, w float32, rows, n int)

//go:noescape
func vecAxpyScatter2(dst *float32, dstStride int, src *float32, srcStride int, w float32, rows, n int)

//go:noescape
func vecGradW3x3(acc, dy, img *float32, outH, outW, inH, inW, strideH, strideW, padH, padW int)

//go:noescape
func vecFoldScaled(dst *float64, src *float32, w float64, n int)

//go:noescape
func vecSqDist(a, b *float32, n int) float64
