package tensor

import (
	"fmt"
	"math"
	"sync"
)

// Int8-quantized matmul — the BackendInt8 kernel behind the weight-stationary
// fused entry points (weights.go). Strictly opt-in: auto never selects it.
//
// Quantization scheme (symmetric, zero-point-free in VALUE, biased in
// STORAGE — see the SWAR layout below):
//
//   - Weights: one scale per OUTPUT CHANNEL (per column for weights-as-B,
//     per row for weights-as-A), s_c = maxabs(channel)/127, quantized once
//     per weight version at refresh time (weights.go).
//   - Activations: quantized per call — per ROW for the dense path's A
//     operand (each sample gets its own scale, so one hot sample cannot
//     crush another's resolution), per TENSOR for the conv path's im2col B
//     operand (column scales are meaningless there; columns are spatial
//     positions, not channels).
//
// SWAR microkernel: a scalar int32 multiply has HALF the throughput of a
// float multiply on amd64 (IMUL binds to one port; MULSS issues on two), so
// an element-at-a-time integer kernel loses to the float GEBP kernel. The
// int8 kernel instead stores both operands BIASED to unsigned (q' = q+128 ∈
// [1,255]) and packs the B panel as 64-bit words holding two 32-bit lanes of
// adjacent columns; one 64-bit multiply by an A byte then produces BOTH lane
// products (each ≤ 255² = 65025, far below the 2³² lane boundary), and lane
// sums accumulate in place: 4 multiplies per k-step drive the full 2×4 tile,
// twice the MAC density of the float microkernel. The store peels the two
// int32 lane accumulators apart and removes the bias exactly with the
// zero-point identity
//
//	Σ a·b = Σ a'·b' − 128·Σa' − 128·Σb' + k·16384,
//
// with the per-row and per-column biased sums recorded at quantization time
// and folded into per-row/per-column int64 corrections ONCE per call (per
// version for the stationary operand) — the store's per-output work is one
// lane extraction, two integer adds, and one dequant multiply, and the
// recovered dot product is bit-for-bit the signed int8 dot.
// Dequantization multiplies once per target, out = float32(dot) · rowFactor
// · colScale (fixed multiply order), then the caller's epilogue (bias +
// activation) is swept in float32 exactly as on the float backends.
//
// Determinism: per-row/per-tensor maxabs reductions scan in fixed index
// order (float max is exact, so even the order would not matter),
// quantization is element-local, and integer accumulation is exact and
// order-independent — so int8 results are bit-identical across concurrent
// replicas by construction, which is what the serve digest contract needs
// from every backend. There is no k-blocking: nothing reassociates, because
// nothing rounds.
//
// Accuracy: per element of a k-deep dot product the quantization error is
// bounded by k·128·s_a·s_w (each operand's rounding error is ≤ s/2 against
// a partner bounded by 127·s, plus the s_a·s_w/4 cross term). With unit-ish
// activations and fan-in-scaled weights that lands around 1e-2 absolute —
// the int8 tier's documented tolerance is therefore Int8Tol (5e-2, relative
// past unit magnitude) + identical argmax on the model fixtures, NOT the
// float tier's 1e-5.
const Int8Tol = 5e-2

// int8MaxK bounds the reduction depth: one 32-bit lane must hold k biased
// products of ≤ 65025 without carrying into its neighbor, so k ≤ 2³²/65025
// ≈ 66051. Every model shape here is orders of magnitude below; the drivers
// panic past the bound rather than corrupt silently.
const int8MaxK = 66000

// int8Bias is the storage zero point; 16384 = int8Bias².
const int8Bias = 128

// abs32 is |v| without the float64 round-trip of math.Abs.
func abs32(v float32) float32 {
	if v < 0 {
		return -v
	}
	return v
}

// maxAbsBits is max|v| over vs, scanned as float bits: clearing the sign bit
// is branch-free |·|, and unsigned comparison of non-negative float bits IS
// float comparison, so the loop is compare+cmov with no float pipeline or
// sign mispredicts. Four accumulators break the dependence chain (this scan
// runs over every conv activation, so it must stream at memory speed).
func maxAbsBits(vs []float32) float32 {
	var m0, m1, m2, m3 uint32
	i := 0
	for ; i+4 <= len(vs); i += 4 {
		x := vs[i : i+4 : i+4]
		if b := math.Float32bits(x[0]) &^ (1 << 31); b > m0 {
			m0 = b
		}
		if b := math.Float32bits(x[1]) &^ (1 << 31); b > m1 {
			m1 = b
		}
		if b := math.Float32bits(x[2]) &^ (1 << 31); b > m2 {
			m2 = b
		}
		if b := math.Float32bits(x[3]) &^ (1 << 31); b > m3 {
			m3 = b
		}
	}
	for ; i < len(vs); i++ {
		if b := math.Float32bits(vs[i]) &^ (1 << 31); b > m0 {
			m0 = b
		}
	}
	if m1 > m0 {
		m0 = m1
	}
	if m2 > m0 {
		m0 = m2
	}
	if m3 > m0 {
		m0 = m3
	}
	return math.Float32frombits(m0)
}

// quantInv converts a channel maxabs into the quantization multiplier
// 127/maxabs; an all-zero channel gets 0, so its values quantize to 0 and
// its dequant scale (maxabs/127 = 0) reproduces exact zeros. A denormal
// maxabs whose reciprocal overflows also flushes to 0 (outputs there are
// below float resolution anyway, and the guard keeps v·inv finite — the
// branchless rounding below has no clamp to catch an infinity).
func quantInv(maxAbs float32) float32 {
	if maxAbs == 0 {
		return 0
	}
	inv := 127 / maxAbs
	if inv > math.MaxFloat32 {
		return 0
	}
	return inv
}

// quantBiased rounds v·inv half-up directly in the biased storage domain:
// floor(s + 128.5) with s = v·inv. Every caller derives inv from the maxabs
// of the very data being quantized, so |s| ≤ 127(1+ε) by construction and
// s+128.5 always lands in [1.5, 255.5] — no sign branch, no clamp, just a
// multiply, an add, and a truncating convert. (This is round-half-up rather
// than half-away-from-zero; ties move a negative value's magnitude down by
// one step at most, well inside the tier's error budget, and the branchless
// form is what lets the per-call activation quantization keep up with the
// SWAR kernel.)
func quantBiased(v, inv float32) uint8 {
	return uint8(int32(v*inv + (int8Bias + 0.5)))
}

// int8Scratch pools the per-call activation quantization state (both
// orientations share one shape of scratch), mirroring packBuf so warm int8
// dispatches allocate nothing.
type int8Scratch struct {
	q     []uint8   // biased A rows (dense path)
	words []uint64  // biased lane-packed B panels (conv path)
	sums  []int32   // per-column biased sums during packing (conv path)
	adj   []int64   // per-row (dense) or per-column (conv) unbias corrections
	rs    []float32 // per-row dequant factors
}

var int8ScratchPool = sync.Pool{New: func() any { return new(int8Scratch) }}

func getInt8Scratch(nq, nwords, nsums, nadj, nrs int) *int8Scratch {
	s := int8ScratchPool.Get().(*int8Scratch)
	if cap(s.q) < nq {
		s.q = make([]uint8, nq)
	}
	if cap(s.words) < nwords {
		s.words = make([]uint64, nwords)
	}
	if cap(s.sums) < nsums {
		s.sums = make([]int32, nsums)
	}
	if cap(s.adj) < nadj {
		s.adj = make([]int64, nadj)
	}
	if cap(s.rs) < nrs {
		s.rs = make([]float32, nrs)
	}
	s.q, s.words = s.q[:nq], s.words[:nwords]
	s.sums, s.adj, s.rs = s.sums[:nsums], s.adj[:nadj], s.rs[:nrs]
	return s
}

func putInt8Scratch(s *int8Scratch) { int8ScratchPool.Put(s) }

// quantizeRows quantizes A rows [0, m) of a[·,k] into biased storage with
// one symmetric scale per row, recording the DEQUANT scale (maxabs/127) in
// rs and the row's unbias correction −128·Σa′ in radj.
func quantizeRows(qa []uint8, radj []int64, rs []float32, a []float32, m, k int) {
	for i := 0; i < m; i++ {
		row := a[i*k : (i+1)*k]
		ma := maxAbsBits(row)
		rs[i] = ma / 127
		inv := quantInv(ma)
		q := qa[i*k : (i+1)*k]
		var sum int64
		for j, v := range row {
			b := quantBiased(v, inv)
			q[j] = b
			sum += int64(b)
		}
		radj[i] = -int8Bias * sum
	}
}

// quantPackB quantizes b[k,n] with the single multiplier inv and packs it
// into biased lane-packed panels: panel p, depth kk occupies two uint64
// words, word 0 carrying columns j0/j0+1 in its low/high 32-bit lanes and
// word 1 columns j0+2/j0+3. Padding lanes are 0 (their products never reach
// a stored output). colSums records each real column's biased sum. The scan
// is row-major (kk outer) so every read of b is contiguous; the panel writes
// scatter with stride 2k, which the store buffers absorb.
func quantPackB(words []uint64, colSums []int32, b []float32, k, n int, inv float32) {
	for j := range colSums[:n] {
		colSums[j] = 0
	}
	full := n &^ (packNR - 1)
	for kk := 0; kk < k; kk++ {
		row := b[kk*n : kk*n+n]
		wbase := kk * 2
		j := 0
		for ; j < full; j += packNR {
			x := row[j : j+4 : j+4]
			q0 := uint64(quantBiased(x[0], inv))
			q1 := uint64(quantBiased(x[1], inv))
			q2 := uint64(quantBiased(x[2], inv))
			q3 := uint64(quantBiased(x[3], inv))
			c := colSums[j : j+4 : j+4]
			c[0] += int32(q0)
			c[1] += int32(q1)
			c[2] += int32(q2)
			c[3] += int32(q3)
			w := words[(j>>2)*k*2+wbase : (j>>2)*k*2+wbase+2 : (j>>2)*k*2+wbase+2]
			w[0] = q0 | q1<<32
			w[1] = q2 | q3<<32
		}
		if j < n {
			var lane [packNR]uint64
			for jj := 0; j+jj < n; jj++ {
				q := quantBiased(row[j+jj], inv)
				lane[jj] = uint64(q)
				colSums[j+jj] += int32(q)
			}
			w := words[(j>>2)*k*2+wbase:]
			w[0] = lane[0] | lane[1]<<32
			w[1] = lane[2] | lane[3]<<32
		}
	}
}

// int8Store unbias-corrects and dequantizes one microkernel row's four lane
// accumulators into w valid output columns: dot_j = lane_j + adj + corr_j,
// where adj is the row's correction (−128·rowSum, with k·16384 folded into
// exactly one side) and corr_j the column's precomputed correction; out =
// float32(dot_j) · r · cs[j]. cs == nil means the column scale is uniform
// and already folded into r (the conv path).
func int8Store(dst []float32, w int, adj int64, corr []int64, r float32, cs []float32, l0, l1, l2, l3 uint32) {
	s0, s1, s2, s3 := r, r, r, r
	if cs != nil {
		if w > 0 {
			s0 *= cs[0]
		}
		if w > 1 {
			s1 *= cs[1]
		}
		if w > 2 {
			s2 *= cs[2]
		}
		if w > 3 {
			s3 *= cs[3]
		}
	}
	var v0, v1, v2, v3 float32
	if w > 0 {
		v0 = s0 * float32(int64(l0)+adj+corr[0])
	}
	if w > 1 {
		v1 = s1 * float32(int64(l1)+adj+corr[1])
	}
	if w > 2 {
		v2 = s2 * float32(int64(l2)+adj+corr[2])
	}
	if w > 3 {
		v3 = s3 * float32(int64(l3)+adj+corr[3])
	}
	switch w {
	case 4:
		dst[0], dst[1], dst[2], dst[3] = v0, v1, v2, v3
	case 3:
		dst[0], dst[1], dst[2] = v0, v1, v2
	case 2:
		dst[0], dst[1] = v0, v1
	case 1:
		dst[0] = v0
	}
}

// int8Micro2x4 accumulates the 2×4 tile over the full k extent with four
// uint64 SWAR accumulators (two 32-bit lanes each) — one 64-bit multiply
// per (row, word) feeds two output columns — then unbiases and dequantizes
// into the float32 output.
func int8Micro2x4(c []float32, ldc int, a0, a1 []uint8, panel []uint64, k, w int, adj0, adj1 int64, corr []int64, r0, r1 float32, cs []float32) {
	var acc00, acc01, acc10, acc11 uint64
	// 8-step unroll with one bounds guard per block: the multiply port is
	// the only real bottleneck (32 IMULs per block drive 64 MACs), so
	// amortizing the index arithmetic, slice headers, and loop control 8×
	// is what lets the SWAR kernel pull ahead of the float microkernel.
	a0, a1 = a0[:k:k], a1[:k:k]
	kk := 0
	for ; kk+8 <= k; kk += 8 {
		p := panel[kk*2 : kk*2+16 : kk*2+16]
		av0, av1 := uint64(a0[kk]), uint64(a1[kk])
		acc00 += av0 * p[0]
		acc01 += av0 * p[1]
		acc10 += av1 * p[0]
		acc11 += av1 * p[1]
		av0, av1 = uint64(a0[kk+1]), uint64(a1[kk+1])
		acc00 += av0 * p[2]
		acc01 += av0 * p[3]
		acc10 += av1 * p[2]
		acc11 += av1 * p[3]
		av0, av1 = uint64(a0[kk+2]), uint64(a1[kk+2])
		acc00 += av0 * p[4]
		acc01 += av0 * p[5]
		acc10 += av1 * p[4]
		acc11 += av1 * p[5]
		av0, av1 = uint64(a0[kk+3]), uint64(a1[kk+3])
		acc00 += av0 * p[6]
		acc01 += av0 * p[7]
		acc10 += av1 * p[6]
		acc11 += av1 * p[7]
		av0, av1 = uint64(a0[kk+4]), uint64(a1[kk+4])
		acc00 += av0 * p[8]
		acc01 += av0 * p[9]
		acc10 += av1 * p[8]
		acc11 += av1 * p[9]
		av0, av1 = uint64(a0[kk+5]), uint64(a1[kk+5])
		acc00 += av0 * p[10]
		acc01 += av0 * p[11]
		acc10 += av1 * p[10]
		acc11 += av1 * p[11]
		av0, av1 = uint64(a0[kk+6]), uint64(a1[kk+6])
		acc00 += av0 * p[12]
		acc01 += av0 * p[13]
		acc10 += av1 * p[12]
		acc11 += av1 * p[13]
		av0, av1 = uint64(a0[kk+7]), uint64(a1[kk+7])
		acc00 += av0 * p[14]
		acc01 += av0 * p[15]
		acc10 += av1 * p[14]
		acc11 += av1 * p[15]
	}
	for ; kk < k; kk++ {
		p0, p1 := panel[kk*2], panel[kk*2+1]
		av0, av1 := uint64(a0[kk]), uint64(a1[kk])
		acc00 += av0 * p0
		acc01 += av0 * p1
		acc10 += av1 * p0
		acc11 += av1 * p1
	}
	int8Store(c, w, adj0, corr, r0, cs,
		uint32(acc00), uint32(acc00>>32), uint32(acc01), uint32(acc01>>32))
	int8Store(c[ldc:], w, adj1, corr, r1, cs,
		uint32(acc10), uint32(acc10>>32), uint32(acc11), uint32(acc11>>32))
}

// int8Micro1x4 is the single-row tail microkernel.
func int8Micro1x4(c []float32, a []uint8, panel []uint64, k, w int, adj int64, corr []int64, r float32, cs []float32) {
	var acc0, acc1 uint64
	a = a[:k:k]
	kk := 0
	for ; kk+8 <= k; kk += 8 {
		p := panel[kk*2 : kk*2+16 : kk*2+16]
		av := uint64(a[kk])
		acc0 += av * p[0]
		acc1 += av * p[1]
		av = uint64(a[kk+1])
		acc0 += av * p[2]
		acc1 += av * p[3]
		av = uint64(a[kk+2])
		acc0 += av * p[4]
		acc1 += av * p[5]
		av = uint64(a[kk+3])
		acc0 += av * p[6]
		acc1 += av * p[7]
		av = uint64(a[kk+4])
		acc0 += av * p[8]
		acc1 += av * p[9]
		av = uint64(a[kk+5])
		acc0 += av * p[10]
		acc1 += av * p[11]
		av = uint64(a[kk+6])
		acc0 += av * p[12]
		acc1 += av * p[13]
		av = uint64(a[kk+7])
		acc0 += av * p[14]
		acc1 += av * p[15]
	}
	for ; kk < k; kk++ {
		av := uint64(a[kk])
		acc0 += av * panel[kk*2]
		acc1 += av * panel[kk*2+1]
	}
	int8Store(c, w, adj, corr, r, cs,
		uint32(acc0), uint32(acc0>>32), uint32(acc1), uint32(acc1>>32))
}

// int8Rows runs the integer driver over output rows [0, m): panels
// outermost (each panel's full-k slab is the hot operand across the row
// sweep), then packMR row blocks with a 1-row tail. No k-blocking — the
// integer accumulator is exact at any depth within int8MaxK. radj/corr are
// the precomputed per-row and per-column unbias corrections (k·16384 folded
// into exactly one of them by the drivers); ep is swept over the finished rows.
func int8Rows(out []float32, qa []uint8, panels []uint64, radj, corr []int64, rs, cs []float32, m, k, n int, ep epilogue) {
	np := (n + packNR - 1) / packNR
	for p := 0; p < np; p++ {
		panel := panels[p*k*2 : (p+1)*k*2]
		j0 := p * packNR
		w := min(packNR, n-j0)
		cb := corr[j0 : j0+w]
		var csp []float32
		if cs != nil {
			csp = cs[j0 : j0+w]
		}
		i := 0
		for ; i+packMR <= m; i += packMR {
			int8Micro2x4(out[i*n+j0:], n, qa[i*k:], qa[(i+1)*k:], panel, k, w,
				radj[i], radj[i+1], cb, rs[i], rs[i+1], csp)
		}
		for ; i < m; i++ {
			int8Micro1x4(out[i*n+j0:], qa[i*k:], panel, k, w, radj[i], cb, rs[i], csp)
		}
	}
	ep.sweep(out, m, n)
}

// matMulInt8B is the dense (weights-as-B) int8 driver: out[m,n] =
// a[m,k] @ W with A quantized per row per call and W's lane-packed panels,
// column corrections (k·16384 included), and column scales taken from the
// version-stationary handle.
func matMulInt8B(out, a []float32, pw *PackedWeights, m int, ep epilogue) {
	k, n := pw.k, pw.n
	if k > int8MaxK {
		panic(fmt.Sprintf("tensor: int8 reduction depth %d exceeds %d", k, int8MaxK))
	}
	s := getInt8Scratch(m*k, 0, 0, m, m)
	quantizeRows(s.q, s.adj, s.rs, a, m, k)
	int8Rows(out, s.q, pw.qpanels, s.adj, pw.qcorr, s.rs, pw.scales, m, k, n, ep)
	putInt8Scratch(s)
}

// matMulInt8A is the conv (weights-as-A) int8 driver: out[rows,n] =
// W[rowOff:rowOff+rows] @ b with b (the im2col matrix) quantized per tensor
// per call and W's biased rows, row corrections, and row scales taken from
// the handle. The per-tensor b scale folds into the per-row dequant factor,
// so the store's column scale is uniform (cs == nil); k·16384 rides on the
// per-column corrections computed here.
func matMulInt8A(out []float32, pw *PackedWeights, rowOff, rows int, b []float32, n int, ep epilogue) {
	k := pw.k
	if k > int8MaxK {
		panic(fmt.Sprintf("tensor: int8 reduction depth %d exceeds %d", k, int8MaxK))
	}
	ma := maxAbsBits(b[:k*n])
	bScale := ma / 127
	np := (n + packNR - 1) / packNR
	s := getInt8Scratch(0, np*k*2, n, n, rows)
	quantPackB(s.words, s.sums, b, k, n, quantInv(ma))
	kbase := int64(k) * int8Bias * int8Bias
	for j, cs := range s.sums {
		s.adj[j] = kbase - int8Bias*int64(cs)
	}
	for i := 0; i < rows; i++ {
		s.rs[i] = pw.scales[rowOff+i] * bScale
	}
	int8Rows(out, pw.qrows[rowOff*k:(rowOff+rows)*k], s.words, pw.qcorr[rowOff:rowOff+rows], s.adj,
		s.rs, nil, rows, k, n, ep)
	putInt8Scratch(s)
}
