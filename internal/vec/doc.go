// Package vec holds the AVX2 forms of the training, inference and
// aggregation kernels of internal/tensor and internal/nn, the CPU probe that
// decides whether they may run, and the one switch those packages read.
//
// Live is true exactly when the build carries the routines (amd64 without the
// purego tag) and a CPUID/XGETBV probe at init found AVX2 with OS-saved YMM
// state. There is no flag and no environment variable; `go build -tags purego`
// (or any other GOARCH) builds a binary without assembly, in which Live is
// false and every routine is a stub that panics. Production code only reads
// Live; the differential tests flip it to compare the routines against the Go
// loops of tensor and nn, which stay as the portable path and the oracle.
//
// Every wrapper returns before touching a pointer when there is nothing to
// compute (a Gemm with no terms still stores its epilogue) and panics when a
// slice is shorter than the extent its routine reads or writes: an undersized
// slice is a bounds-check panic in a Go loop and must not become a silent
// out-of-bounds access here.
//
// # Kernel rules
//
// The routines are bit-identical to the Go loops by construction, not by
// tolerance, under two rules; a third admits the one exception.
//
//  1. Chains and lanes lie across independent targets, never along a
//     reduction. A vector's lanes — and a Go loop's side-by-side
//     accumulators — hold independent accumulation targets: output columns;
//     eight (i,j) chains of the dot form, fed by an in-register transpose;
//     the output positions of a 3×3 depthwise window, each taking all nine
//     taps while its sum stays in its lane, de-interleaved at stride 2, two
//     output rows sharing their pixel loads at stride 1; the
//     input positions of a 3×3 depthwise input gradient, each gathering its
//     taps the same way; eight planes of a 3×3 depthwise weight gradient,
//     one register per tap, fed by an in-register transpose; eight channels
//     of a batch-norm sum; eight planes of a plane sum, laid out the same
//     way; the elements of an elementwise sweep. Every target still receives
//     its terms one at a time in the Go loop's ascending order, with the same
//     zero-skip (±0 skipped, NaN not) in the AXPY forms, the depthwise
//     forward and its input gradient and none in the dot forms. Where a
//     reduction's order IS the result (batch norm's float64 sums, a tap's dot
//     product over a plane, a plane's sum), the targets beside it are what
//     fills the machine. One step is elided where it provably changes no
//     stored bit: the depthwise forward's interior rows start a sum at its
//     first product instead of adding it onto +0, on planes whose bias is not
//     −0. The two chains can differ only when every term is −0 (+0 against
//     −0), and adding any bias but −0 turns both into the same value.
//  2. No FMA. Each step is the Go loop's operation for operation: one
//     VMULPS then one VADDPS (VMULPD/VADDPD in float64), the two roundings
//     of the compiler's MULSS + ADDSS (GOAMD64=v1 never fuses). A fused
//     multiply-add rounds once and would change bits. One ISA, one
//     selection: no AVX-512 variant, no FMA variant. Where two NaN operands
//     can meet (the fold, the depthwise forward and gradients, the GEMM's
//     fused store), the routines take the operands in the order a plain
//     build compiles the Go loop, so the first one's sign and payload
//     survive, and the parity tests check those bits; a plane sum's
//     running sum is the first operand of each add, and a the first of each
//     multiply of its dot form. Go does not specify which NaN survives,
//     though, and a -race build swaps some of those operands; under -race
//     alone the parity tests hold NaN for NaN, and every other value bit for
//     bit. In a plain build every side-by-side chain of the plane sums' one
//     Go loop multiplies with a first, as PlaneSums does, so where a and b
//     are both NaN, a's NaN survives in both.
//  3. A reduction takes lanes only when its consumer is a decision and a
//     proven guard falls back to the serial chain. SqDist is the one such
//     routine: it returns the gate's squared distance in lane order, and
//     fl.updateValid takes its verdict from that sum only where
//     fl.lanesDecide proves no reassociation can flip it; every other input
//     re-runs the serial chain, tensor.SqDist.
//
// So every tol-0 contract, every cmp smoke and cross-machine reproducibility
// hold across the two implementations.
//
// # Epilogues in the store
//
// A routine that produces a conv's output applies the conv's epilogue before
// its one store, so the output is written once: Depthwise3x3 adds the bias,
// and Gemm — the one matrix-product routine, for a @ b and aᵀ @ b alike —
// starts each block from +0 (or from out when accumulating), adds its terms,
// then the row's bias; both then apply an Act (the identity, ReLU or
// hard-swish), which BiasAct takes too. The epilogue is BiasAct's
// instructions in BiasAct's operand order, so it is the Go loop followed by
// its sweep, bit for bit. Batch norm's training passes carry the activation
// the same way: bnNormalize stores act(x̂·γ + β) once, and the backward's
// reduction bnSumDot recomputes x̂ and z from x with bnNormalize's
// operations, stores dz = act′(z)·dy and folds Σdz and Σdz·x̂ in one pass, so
// no x̂, pre-activation or separate activation pass is ever stored or run.
// Five routines take an Act — Gemm, Depthwise3x3, BiasAct, BNNormalize and
// BNSumDot — and an activation with no sum to finish is BiasAct with bias −0
// (tensor.ApplyAct), so none applies an Act alone.
//
// The package has 16 routines besides the CPU probe's two. Im2Col2 lowers a
// whole sample at column stride 2, margins included; the lowering's Go loop
// still runs at column stride 1, where each span is one contiguous copy.
// PlaneSums is the plane sum of pooling, the squeeze-excite squeeze and
// backward, and the conv bias gradient.
//
// # Layout
//
// Each routine of vec_amd64.s, the CPU probe's two included, opens with
// PCALIGN $64, so it starts on a 64-byte cache line and where its loops fall
// is fixed by that file alone, not by the size of the code linked before it.
// A routine with a frame pads once after its prologue, outside every loop. A
// new routine must open the same way; TestEveryRoutineOpensOnACacheLine
// fails otherwise.
package vec
