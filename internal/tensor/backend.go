package tensor

import (
	"fmt"
	"os"
	"sync/atomic"
)

// Kernel backends & numerics tiers --------------------------------------------
//
// The matmul entry points are split into two numerics tiers:
//
//   - The ORACLE tier: the six entry points training uses — MatMulIntoP,
//     MatMulSlicesP, MatMulTransBIntoP, MatMulTransBAccSlices,
//     MatMulTransAAccIntoP, MatMulTransAAccSlicesP — all thin fills of one
//     descriptor run by gemm (matmul.go). They run the register-tiled
//     kernels with a strict per-target ascending-k accumulation order, are
//     bit-exact at every intra-op budget and never dispatch — the tol-0
//     training and aggregation reproducibility contracts stand on them.
//
//     The tier has two implementations of the same bits. The Go loops
//     (matmul.go, im2col.go) are the portable path and the test reference;
//     the single-chain loops they once were are kept in the tests as oracles.
//     On amd64 the AVX2 routines of vec_amd64.s replace them when vecLive
//     is true (vec.go): the build is not tagged purego and a CPUID/XGETBV
//     probe at init found AVX2 with OS-saved YMM state. There is no flag
//     and no environment variable; `go build -tags purego` is the way to
//     a binary without assembly. The vector routines are bit-identical to
//     the Go loops BY CONSTRUCTION, under two rules and one exception:
//
//       1. Chains and lanes lie across independent accumulation targets,
//          never along a reduction. A vector's lanes — and a Go loop's
//          side-by-side accumulators — are output columns j; for the dot
//          form, eight (i,j) chains fed by an in-register transpose; for a
//          depthwise weight gradient, the taps of the kernel (three per
//          walk in Go, all nine of a 3×3 in the vector routine); for a
//          depthwise tap, the output positions, de-interleaved at stride 2.
//          Every target still receives its partial products one at a time
//          in ascending inner-index order — with the same av != 0 skip in
//          the AXPY forms (±0 skipped, NaN not) and no skip in the dot
//          forms.
//       2. No FMA in the oracle tier: each step is one VMULPS and one
//          VADDPS, two roundings like the Go compiler's MULSS + ADDSS
//          (GOAMD64=v1 never fuses). A fused multiply-add rounds once and
//          would change bits.
//       3. A reduction takes lanes only when its consumer is a decision and a
//          proven guard falls back to the serial chain: SqDistLanes (vec.go).
//
//     One ISA, one selection: no AVX-512 variant, no FMA variant.
//
//   - The TOLERANCE tier: the two epilogue-fused, weight-stationary entry
//     points the frozen inference path compiles to (MatMulWASlicesPEp,
//     MatMulWBSlicesPEp, over matMulEp). These dispatch through the
//     process-wide Backend below and may run the packed, cache-blocked GEBP
//     kernel, whose k-blocking reassociates partial sums. nn.Freeze's
//     contract (≤1e-5 max-abs vs the reference forward, identical argmax)
//     absorbs that; BackendSerial forces the oracle kernels.
//
// The int8-quantized tier sits one step further out on the same seam: the
// frozen path's fused matmuls carry a PackedWeights handle (weights.go)
// whose int8 panels and per-output-channel scales are quantized once per
// weight version at nn.Freeze time, and BackendInt8 routes the
// weight-stationary entry points below onto the integer microkernel
// (int8.go). Its tolerance is LOOSER than the 1e-5 float tier (see the
// documented bound in int8.go), so BackendAuto never selects it — int8 is
// strictly opt-in via SetBackend/-kernel-backend/the environment variable.

// Backend selects the kernel implementation behind the tolerance-tier
// (epilogue-fused) matmul entry points.
type Backend uint8

const (
	// BackendAuto picks per call. With the vector oracle kernels live it
	// always stays on them: they beat the scalar packed GEBP and the int8
	// SWAR kernel on every measured frozen shape by 3–8×, so auto neither
	// dispatches to a packed kernel nor packs panels for one. Without them
	// (purego, non-amd64, no AVX2) it picks the packed GEBP kernel when the
	// matmul is large enough to amortize packing, the oracle kernels
	// otherwise. The default.
	BackendAuto Backend = iota
	// BackendSerial forces the oracle kernels everywhere — bit-identical to
	// the pre-backend behavior at every budget.
	BackendSerial
	// BackendPacked forces the packed kernel for every eligible shape
	// (k ≥ 1); used by the CI backend matrix lane and A/B benchmarks.
	BackendPacked
	// BackendInt8 runs the weight-stationary fused matmuls (the frozen
	// path's conv/dense kernels, which carry a PackedWeights handle) on the
	// int8-quantized integer microkernel: weights quantized per output
	// channel once per version, activations per call, int32 accumulation,
	// float32 dequantizing epilogue. Tolerance-tier calls WITHOUT a weight
	// handle (raw-slice fused entries) fall back to the packed float
	// kernel. Never chosen by auto — the quantization error leaves the
	// float tier's 1e-5 bound, so int8 must be forced explicitly.
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

// ParseBackend maps the -kernel-backend flag values onto a Backend.
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "", "auto":
		return BackendAuto, nil
	case "serial":
		return BackendSerial, nil
	case "packed":
		return BackendPacked, nil
	case "int8":
		return BackendInt8, nil
	}
	return BackendAuto, fmt.Errorf("tensor: unknown kernel backend %q (want auto, serial, packed, or int8)", s)
}

// activeBackend is the process-wide selection; the zero value is
// BackendAuto. Reads sit on the matmul hot path, so it is a lock-free
// atomic.
var activeBackend atomic.Uint32

// SetBackend selects the kernel backend for every subsequent
// tolerance-tier matmul. Safe for concurrent use; typically set once at
// startup from the -kernel-backend flag.
func SetBackend(b Backend) { activeBackend.Store(uint32(b)) }

// ActiveBackend returns the current process-wide backend selection.
func ActiveBackend() Backend { return Backend(activeBackend.Load()) }

// initBackendFromEnv applies an environment-variable backend selection and
// returns the error for an unparseable value WITHOUT changing the active
// backend — the init hook below turns that error into a hard process exit.
// Split out (with the lookup injected) so tests can pin the reject path
// without forking a subprocess.
func initBackendFromEnv(value string) error {
	if value == "" {
		return nil
	}
	b, err := ParseBackend(value)
	if err != nil {
		return fmt.Errorf("HETEROSWITCH_KERNEL_BACKEND: %v", err)
	}
	SetBackend(b)
	return nil
}

// init honors the HETEROSWITCH_KERNEL_BACKEND environment variable so test
// lanes (the CI backend matrix) can force a backend across whole packages
// without threading flags through every harness. An unknown value is a
// configuration error, not a preference: silently falling back to auto would
// make a CI lane test the wrong backend while reporting green, so the
// process fails loudly at startup instead.
func init() {
	if err := initBackendFromEnv(os.Getenv("HETEROSWITCH_KERNEL_BACKEND")); err != nil {
		fmt.Fprintln(os.Stderr, "tensor:", err)
		os.Exit(2)
	}
}

// Auto-dispatch thresholds: packing B costs k·n writes against m·k·n
// multiply-adds of compute, so the packed kernel needs enough rows to
// amortize the pack (m ≥ packAutoMinRows ⇒ pack ≤ 1/packAutoMinRows of
// compute) and enough total work for the panel loop's bookkeeping to
// vanish. Below either bound the oracle kernels win and auto stays on
// them. The thresholds apply only when the oracle kernels are the scalar Go
// loops; with the vector kernels live auto never packs (see BackendAuto).
const (
	packAutoMinRows = 8
	packAutoMinWork = 1 << 14
)

// usePacked reports whether a tolerance-tier matmul of the given shape
// dispatches to the packed kernel under the active backend. k == 0 always
// stays on the oracle path (the packed driver's first k-block doubles as
// the output initialization, so it needs at least one block). BackendInt8
// behaves like BackendPacked here: a raw-slice fused matmul has no
// per-channel weight scales to quantize against, so the closest honest
// kernel is the packed float one (the weight-stationary entry points
// dispatch to the true int8 kernel before ever reaching this check).
func usePacked(m, k, n int) bool {
	if k <= 0 || m <= 0 || n <= 0 {
		return false
	}
	switch ActiveBackend() {
	case BackendPacked, BackendInt8:
		return true
	case BackendSerial:
		return false
	default:
		return !vecLive && m >= packAutoMinRows && m*k*n >= packAutoMinWork
	}
}
