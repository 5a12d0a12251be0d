//go:build amd64 && !purego

package nn

// vecAvailable mirrors internal/tensor's probe for this package's own
// elementwise kernels (vec_amd64.s): the build carries them and the CPU and
// OS can run AVX2. tensor exports no switch, so the two packages each ask
// the CPU the same question and get the same answer.
var vecAvailable = detectAVX2()

// detectAVX2: CPUID.1 reports OSXSAVE and AVX, XGETBV(0) shows the OS saving
// XMM and YMM state, CPUID.7.0 reports AVX2.
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
func vecHardSwish(y, x *float32, n int)

//go:noescape
func vecHardSwishGrad(dx, dy, x *float32, n int)

//go:noescape
func vecBiasAct(y *float32, rows, n int, bias *float32, hswish bool)

//go:noescape
func vecBNNormalize(out, xhat, x *float32, stride, rows, n int, mean, inv, gamma, beta float32)

//go:noescape
func vecBNGradX(dx, dy, xhat *float32, stride, rows, n int, gamma, scale, m, sDyG, sDyXh float32)
