package tensor

import (
	"fmt"
	"sync/atomic"
)

// Kernel backends & numerics tiers --------------------------------------------
//
// The matmul entry points are split into two numerics tiers:
//
//   - The ORACLE tier: the six entry points training uses — MatMulInto,
//     MatMulSlices, MatMulTransBInto, MatMulTransBAccSlices,
//     MatMulTransAAccInto, MatMulTransAAccSlices — all thin fills of one
//     descriptor run by gemm (matmul.go) on the calling goroutine. They run
//     the register-tiled kernels with a strict per-target ascending-k
//     accumulation order and never dispatch — the tol-0 training and
//     aggregation reproducibility contracts stand on them.
//
//     The tier has two implementations of the same bits. The Go loops
//     (matmul.go, im2col.go) are the portable path and the test reference;
//     the single-chain loops they once were are kept in the tests as oracles.
//     internal/vec's AVX2 routines replace them when vec.Live is true; its
//     package doc states when that is and the kernel rules that make the two
//     bit-identical.
//
//   - The TOLERANCE tier: the two epilogue-fused, weight-stationary entry
//     points the frozen inference path compiles to (MatMulWASlicesEp,
//     MatMulWBSlicesEp, over matMulEp). These dispatch through the
//     process-wide Backend below: auto and serial run the oracle kernels, a
//     forced BackendPacked the packed, cache-blocked GEBP kernel, whose
//     k-blocking reassociates partial sums. nn.Network.Freeze's contract
//     (≤1e-5 max-abs vs the reference forward, identical argmax) absorbs
//     that.
//
// Every entry point of both tiers runs on the calling goroutine; this
// package spawns no work. The frozen forward's intra-op budget splits a
// batch's conv iterations (samples × groups) above these calls, so a
// batch-1 request runs each of them on one core.
//
// The int8-quantized tier sits one step further out on the same seam: the
// frozen path's fused matmuls carry a PackedWeights handle (weights.go)
// whose int8 panels and per-output-channel scales are quantized once per
// weight version at nn.Network.Freeze time, and BackendInt8 routes the
// weight-stationary entry points below onto the integer microkernel
// (int8.go). Its tolerance is LOOSER than the 1e-5 float tier (see the
// documented bound in int8.go).
//
// No run option selects a backend. Every harness, binary and test runs
// BackendAuto, which is the oracle tier on every build, so what a run
// prints does not depend on the build or the CPU. The packed and int8
// kernels are reached only through SetBackend, by the benchmark's probes
// and by the kernels' own tests.

// Backend selects the kernel implementation behind the tolerance-tier
// (epilogue-fused) matmul entry points.
type Backend uint8

const (
	// BackendAuto runs the oracle kernels on every build: it neither
	// dispatches to a packed kernel nor packs panels for one. The default,
	// and bit-identical to BackendSerial.
	BackendAuto Backend = iota
	// BackendSerial forces the oracle kernels everywhere — bit-identical to
	// BackendAuto.
	BackendSerial
	// BackendPacked forces the packed kernel for every eligible shape
	// (k ≥ 1); the benchmark's probes and the kernel tests select it.
	BackendPacked
	// BackendInt8 runs the weight-stationary fused matmuls (the frozen
	// path's conv/dense kernels, which carry a PackedWeights handle) on the
	// int8-quantized integer microkernel: weights quantized per output
	// channel once per version, activations per call, int32 accumulation,
	// float32 dequantizing epilogue. Tolerance-tier calls WITHOUT a weight
	// handle (raw-slice fused entries) fall back to the packed float
	// kernel. The quantization error leaves the float tier's 1e-5 bound.
	BackendInt8
)

// String implements fmt.Stringer.
func (b Backend) String() string {
	switch b {
	case BackendAuto:
		return "auto"
	case BackendSerial:
		return "serial"
	case BackendPacked:
		return "packed"
	case BackendInt8:
		return "int8"
	}
	return fmt.Sprintf("Backend(%d)", uint8(b))
}

// activeBackend is the process-wide selection; the zero value is
// BackendAuto. Reads sit on the matmul hot path, so it is a lock-free
// atomic.
var activeBackend atomic.Uint32

// SetBackend selects the kernel backend for every subsequent
// tolerance-tier matmul. Safe for concurrent use.
func SetBackend(b Backend) { activeBackend.Store(uint32(b)) }

// ActiveBackend returns the current process-wide backend selection.
func ActiveBackend() Backend { return Backend(activeBackend.Load()) }

// usePacked reports whether a tolerance-tier matmul of the given shape
// dispatches to the packed kernel: only under a forced BackendPacked or
// BackendInt8, never under auto or serial. k == 0 always
// stays on the oracle path (the packed driver's first k-block doubles as
// the output initialization, so it needs at least one block). BackendInt8
// behaves like BackendPacked here: a raw-slice fused matmul has no
// per-channel weight scales to quantize against, so the closest honest
// kernel is the packed float one (the weight-stationary entry points
// dispatch to the true int8 kernel before ever reaching this check).
func usePacked(m, k, n int) bool {
	b := ActiveBackend()
	return (b == BackendPacked || b == BackendInt8) && k > 0 && m > 0 && n > 0
}
