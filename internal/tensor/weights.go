package tensor

import (
	"fmt"

	"heteroswitch/internal/vec"
)

// Weight-stationary packed panels ---------------------------------------------
//
// A PackedWeights handle caches the backend-specific forms of one frozen
// matmul's weight operand, so packing and quantization run once per WEIGHT
// VERSION instead of once per call. The frozen inference ops
// (nn.Network.Freeze) own a handle per fused matmul and refresh it when they
// re-fold, once per weight version, so in steady state the only per-batch
// work on the weight side is a pointer read.
//
// Two orientations exist because the frozen path puts weights on both sides
// of its matmuls:
//
//   - weights-as-B (PackB): the dense layer computes x @ W, so W is the
//     packable right operand. The float form is exactly the packed GEBP
//     backend's panel-major layout — caching it makes the float packed
//     backend weight-stationary too (bit-identical to per-call packing, the
//     panels are the same bytes). The int8 form is the same panel layout
//     quantized with one symmetric scale per output COLUMN.
//   - weights-as-A (PackA): the conv layers compute W @ col, so W is the
//     left operand, already row-major contiguous — the float kernels need
//     no repacking (the per-call pack cost there is on the activation side).
//     Only the int8 form is cached: rows quantized with one symmetric scale
//     per output ROW (= per output channel).
//
// Forms are built lazily per the active backend at refresh time; a dispatch
// that finds its form missing (the backend changed after the last refresh)
// falls back to the per-call kernels on the CALLER's float weights, so a
// stale handle can cost performance but never correctness. Every cached form
// is a copy: the handle retains no reference to the source weights.

// PackedWeights is the version-stationary pack/quantization cache for one
// weight matrix. The zero value is ready; Refresh* before first use. Not
// safe for concurrent mutation — each frozen op owns its handle and
// refreshes it from the goroutine that freezes.
type PackedWeights struct {
	asA  bool
	m, k int // weights-as-A dims [m,k]; as-B uses k,n
	n    int

	fpanels []float32 // float panel-major B panels (as-B only)
	qpanels []uint64  // int8 as-B form: biased lane-packed panels (int8.go layout)
	qrows   []uint8   // int8 as-A form: biased row-major [m,k]
	// qcorr holds the precomputed unbias corrections per output channel:
	// as-B per column, k·16384 − 128·Σw′ (the constant rides with the
	// stationary side); as-A per row, −128·Σw′ (the constant rides with the
	// per-call activation corrections instead).
	qcorr  []int64
	scales []float32 // per-output-channel dequant scales: as-A len m, as-B len n

	hasFloat, hasInt8 bool
}

// Reset invalidates all cached forms (keeping their capacity) so the handle
// can be repacked for a new weight version.
func (pw *PackedWeights) Reset() {
	pw.hasFloat, pw.hasInt8 = false, false
}

// HasFloat reports whether the float panel form is cached (as-B only).
func (pw *PackedWeights) HasFloat() bool { return pw.hasFloat }

// HasInt8 reports whether the int8 quantized form is cached.
func (pw *PackedWeights) HasInt8() bool { return pw.hasInt8 }

// needForms maps the active backend onto the forms worth building now.
// Auto and serial never touch a cached form; packed uses float panels (as-B
// only); int8 uses the quantized form. Building only what the current
// backend can consume keeps the refold pass from paying for kernels that
// will not run.
func needForms(asA bool) (wantFloat, wantInt8 bool) {
	switch ActiveBackend() {
	case BackendInt8:
		return false, true
	case BackendPacked:
		return !asA, false
	}
	return false, false
}

// RefreshB (re)binds the handle to the weights-as-B matrix w[k,n] and packs
// the forms the active backend consumes. w is read during the call only —
// the handle keeps copies, never the slice.
func (pw *PackedWeights) RefreshB(w []float32, k, n int) {
	if len(w) < k*n {
		panic(fmt.Sprintf("tensor: RefreshB weights %d short of %dx%d", len(w), k, n))
	}
	pw.asA, pw.k, pw.n, pw.m = false, k, n, 0
	pw.hasFloat, pw.hasInt8 = false, false
	wantFloat, wantInt8 := needForms(false)
	if wantFloat {
		pw.packFloatB(w)
	}
	if wantInt8 {
		pw.quantizeB(w)
	}
}

// RefreshA (re)binds the handle to the weights-as-A matrix w[m,k] and packs
// the forms the active backend consumes.
func (pw *PackedWeights) RefreshA(w []float32, m, k int) {
	if len(w) < m*k {
		panic(fmt.Sprintf("tensor: RefreshA weights %d short of %dx%d", len(w), m, k))
	}
	pw.asA, pw.m, pw.k, pw.n = true, m, k, 0
	pw.hasFloat, pw.hasInt8 = false, false
	if _, wantInt8 := needForms(true); wantInt8 {
		pw.quantizeA(w)
	}
}

// packFloatB builds the panel-major float form — byte-identical to what the
// per-call packed backend would build from the same weights, so routing
// through the cache never changes a result bit.
func (pw *PackedWeights) packFloatB(w []float32) {
	np := (pw.n + packNR - 1) / packNR
	size := np * pw.k * packNR
	if cap(pw.fpanels) < size {
		pw.fpanels = make([]float32, size)
	}
	pw.fpanels = pw.fpanels[:size]
	packB(pw.fpanels, w, pw.k, pw.n)
	pw.hasFloat = true
}

// quantizeB builds the int8 panel form of the as-B weights with one
// symmetric scale per output column: scales[j] = maxabs(W[:,j])/127, values
// round(w/scale) stored biased in the SWAR lane layout (int8.go) with the
// per-column unbias correction k·16384 − 128·Σw′ precomputed into qcorr.
// Zero columns quantize to all-zero with scale 0 (the dequant multiply then
// reproduces the exact 0).
func (pw *PackedWeights) quantizeB(src []float32) {
	k, n := pw.k, pw.n
	if k > int8MaxK {
		panic(fmt.Sprintf("tensor: int8 reduction depth %d exceeds %d", k, int8MaxK))
	}
	np := (n + packNR - 1) / packNR
	size := np * k * 2
	if cap(pw.qpanels) < size {
		pw.qpanels = make([]uint64, size)
	}
	pw.qpanels = pw.qpanels[:size]
	if cap(pw.qcorr) < n {
		pw.qcorr = make([]int64, n)
	}
	pw.qcorr = pw.qcorr[:n]
	if cap(pw.scales) < n {
		pw.scales = make([]float32, n)
	}
	pw.scales = pw.scales[:n]
	kbase := int64(k) * 128 * 128
	// Per-column maxabs, then a fused quantize+pack pass in panel order.
	inv := make([]float32, 0, packNR)
	for p := 0; p < np; p++ {
		j0 := p * packNR
		w := min(packNR, n-j0)
		inv = inv[:0]
		for j := j0; j < j0+w; j++ {
			var ma float32
			for kk := 0; kk < k; kk++ {
				if v := abs32(src[kk*n+j]); v > ma {
					ma = v
				}
			}
			pw.scales[j] = ma / 127
			inv = append(inv, quantInv(ma))
		}
		dst := pw.qpanels[p*k*2 : (p+1)*k*2]
		var csum [packNR]int64
		for j := range csum {
			csum[j] = 0
		}
		for kk := 0; kk < k; kk++ {
			var lane [packNR]uint64
			for j := 0; j < w; j++ {
				v := quantBiased(src[kk*n+j0+j], inv[j])
				lane[j] = uint64(v)
				csum[j] += int64(v)
			}
			dst[kk*2] = lane[0] | lane[1]<<32
			dst[kk*2+1] = lane[2] | lane[3]<<32
		}
		for j := 0; j < w; j++ {
			pw.qcorr[j0+j] = kbase - 128*csum[j]
		}
	}
	pw.hasInt8 = true
}

// quantizeA builds the int8 row form of the as-A weights with one symmetric
// scale per output row (= per output channel for the conv fold), stored
// biased with the per-row unbias correction −128·Σw′ precomputed into qcorr.
func (pw *PackedWeights) quantizeA(w []float32) {
	m, k := pw.m, pw.k
	if k > int8MaxK {
		panic(fmt.Sprintf("tensor: int8 reduction depth %d exceeds %d", k, int8MaxK))
	}
	if cap(pw.qrows) < m*k {
		pw.qrows = make([]uint8, m*k)
	}
	pw.qrows = pw.qrows[:m*k]
	if cap(pw.qcorr) < m {
		pw.qcorr = make([]int64, m)
	}
	pw.qcorr = pw.qcorr[:m]
	if cap(pw.scales) < m {
		pw.scales = make([]float32, m)
	}
	pw.scales = pw.scales[:m]
	for i := 0; i < m; i++ {
		row := w[i*k : (i+1)*k]
		ma := maxAbsBits(row)
		pw.scales[i] = ma / 127
		inv := quantInv(ma)
		qrow := pw.qrows[i*k : (i+1)*k]
		var sum int64
		for j, v := range row {
			b := quantBiased(v, inv)
			qrow[j] = b
			sum += int64(b)
		}
		pw.qcorr[i] = -128 * sum
	}
	pw.hasInt8 = true
}

// Weight-stationary fused entry points ----------------------------------------
//
// These are the tolerance-tier entries the frozen ops call when they hold a
// PackedWeights handle. They dispatch like the raw-slice entries, with two
// extra fast paths: BackendInt8 runs the integer microkernel against the
// handle's quantized form, and the packed float backend reuses the handle's
// panels instead of re-packing per call.

// MatMulWBSlicesEp computes out[m,n] = act(a[m,k] @ W + bias) for a
// weights-as-B handle (k, n from the handle), with one bias per output column
// (a dense layer's units) — the frozen dense entry. w is the caller's own
// float weights [k,n], used only when the handle lacks the active backend's
// form (never when the int8 or cached-panel fast path runs).
func MatMulWBSlicesEp(out, a, w []float32, pw *PackedWeights, m int, bias []float32, act vec.Act) {
	k, n := pw.k, pw.n
	ep := epilogue{bias: bias, act: act, cols: true}
	if ActiveBackend() == BackendInt8 && pw.hasInt8 {
		matMulInt8B(out, a, pw, m, ep)
		return
	}
	if usePacked(m, k, n) && pw.hasFloat {
		runPackedPanels(out, a, pw.fpanels, m, k, n, ep)
		return
	}
	matMulEp(out, a, w, m, k, n, ep)
}

// MatMulWASlicesEp computes out[rows,n] = act(W[rowOff:rowOff+rows] @ b +
// bias) for a weights-as-A handle, with one bias per output row (a conv's
// channels) — the frozen conv entry. rowOff/rows select the group's output-channel
// rows within the handle (grouped convolutions pack all groups into one
// handle); w is the caller's own float rows for that window, ALREADY offset
// (the fallback operand). The oracle kernel stores the bias and act with the
// sums; the packed and int8 kernels sweep them afterwards.
func MatMulWASlicesEp(out, w []float32, pw *PackedWeights, rowOff, rows int, b []float32, n int, bias []float32, act vec.Act) {
	k := pw.k
	ep := epilogue{bias: bias, act: act}
	if ActiveBackend() == BackendInt8 && pw.hasInt8 {
		matMulInt8A(out, pw, rowOff, rows, b, n, ep)
		return
	}
	matMulEp(out, w, b, rows, k, n, ep)
}
