package tensor

import "sync"

// Packed cache-blocked GEBP matmul — the tolerance-tier backend behind the
// epilogue-fused entry points (see backend.go for the tier contract).
//
// Shape of the computation: out[m,n] (+)= a[m,k] @ b[k,n], with b packed
// into contiguous packNR-wide column panels (panel-major, zero-padded to the
// panel width) so the microkernel streams B with unit stride instead of the
// row-major stride-n walk the oracle kernels pay. Where the panels come from
// depends on the caller: the raw-slice fused entries pack b per call into a
// pooled buffer (b is typically an activation matrix that changes every
// batch), while the weight-stationary entries (weights.go) reuse panels a
// PackedWeights handle packed ONCE per weight version — the frozen dense
// path pays no per-batch packing at all. The driver blocks k into packKC
// slabs (one panel slab is packKC·packNR floats — L1 resident while every
// row block re-reads it) and runs a widened register
// microkernel: packMR output rows × packNR output columns accumulate in
// registers across a whole k-block, so each B load feeds packMR fused
// multiply-adds instead of one.
//
// Numerics: within one (row, column) target the partial products still fold
// in ascending-k order, but k-blocking writes each packKC-slab's register
// sum into the output between slabs, reassociating the addition chain
// whenever k > packKC. That puts this kernel in the tolerance tier — callers
// hold the frozen path's ≤1e-5 + identical-argmax contract, not tol-0.
// A call runs on the calling goroutine.
//
// The pack buffer is recycled through a sync.Pool of *packBuf, so a warm
// packed dispatch performs no heap allocation — the same 0 allocs/op
// contract as the oracle kernels.
const (
	// packMR × packNR is the register microkernel footprint. 2×4 doubles the
	// oracle kernels' 1×4 row tile: one load of 4 packed B values feeds both
	// rows' accumulators, halving B traffic per multiply-add. Wider tiles
	// (4×4, 8×4) were measured slower on amd64 — 16+ live accumulators
	// exceed the 16 XMM registers and the compiler's spill stores cost more
	// than the saved loads — so 2×4 (8 accumulators + 4 B + 2 A values) is
	// the widest spill-free footprint.
	packMR = 2
	packNR = 4
	// packKC bounds the k-block so one panel slab (packKC·packNR floats,
	// 4 KiB) stays L1-resident across the row sweep.
	packKC = 256
)

// packBuf is a pooled pack-destination buffer. Pooling the struct pointer
// (not the slice) keeps Get/Put free of interface-boxing allocations.
type packBuf struct{ data []float32 }

var packBufPool = sync.Pool{New: func() any { return new(packBuf) }}

// getPackBuf returns a pooled buffer with at least size elements.
func getPackBuf(size int) *packBuf {
	pb := packBufPool.Get().(*packBuf)
	if cap(pb.data) < size {
		pb.data = make([]float32, size)
	}
	pb.data = pb.data[:size]
	return pb
}

// putPackBuf recycles the buffer.
func putPackBuf(pb *packBuf) { packBufPool.Put(pb) }

// packB copies b[k,n] into panel-major layout: panel p holds columns
// [p·packNR, (p+1)·packNR) as k rows of packNR contiguous floats, the tail
// panel zero-padded so the microkernel never branches on column count (the
// padded products land in accumulators the store step discards).
func packB(buf, b []float32, k, n int) {
	np := (n + packNR - 1) / packNR
	for p := 0; p < np; p++ {
		j0 := p * packNR
		dst := buf[p*k*packNR : (p+1)*k*packNR]
		if n-j0 >= packNR {
			for kk := 0; kk < k; kk++ {
				src := b[kk*n+j0 : kk*n+j0+packNR : kk*n+j0+packNR]
				d := dst[kk*packNR : kk*packNR+packNR : kk*packNR+packNR]
				d[0], d[1], d[2], d[3] = src[0], src[1], src[2], src[3]
			}
		} else {
			w := n - j0
			for kk := 0; kk < k; kk++ {
				d := dst[kk*packNR : kk*packNR+packNR : kk*packNR+packNR]
				for j := 0; j < packNR; j++ {
					if j < w {
						d[j] = b[kk*n+j0+j]
					} else {
						d[j] = 0
					}
				}
			}
		}
	}
}

// packedStore writes one microkernel row's accumulators into w valid output
// columns, adding when a previous k-block (or an accumulating caller)
// already owns the output.
func packedStore(dst []float32, w int, add bool, c0, c1, c2, c3 float32) {
	if add {
		switch w {
		case 4:
			dst[0] += c0
			dst[1] += c1
			dst[2] += c2
			dst[3] += c3
		case 3:
			dst[0] += c0
			dst[1] += c1
			dst[2] += c2
		case 2:
			dst[0] += c0
			dst[1] += c1
		case 1:
			dst[0] += c0
		}
		return
	}
	switch w {
	case 4:
		dst[0], dst[1], dst[2], dst[3] = c0, c1, c2, c3
	case 3:
		dst[0], dst[1], dst[2] = c0, c1, c2
	case 2:
		dst[0], dst[1] = c0, c1
	case 1:
		dst[0] = c0
	}
}

// packedMicro2x4 accumulates c[2, w] (+)= [a0; a1][k0:kMax] @
// panel[k0:kMax, 4] with all 8 targets live in registers across the
// k-block. a0 and a1 are the two full A rows; c is pre-offset to the
// block's first output element (stride ldc).
func packedMicro2x4(c []float32, ldc int, a0, a1, panel []float32, k0, kMax, w int, add bool) {
	var c00, c01, c02, c03 float32
	var c10, c11, c12, c13 float32
	for kk := k0; kk < kMax; kk++ {
		bq := panel[kk*packNR : kk*packNR+packNR : kk*packNR+packNR]
		av0, av1 := a0[kk], a1[kk]
		c00 += av0 * bq[0]
		c01 += av0 * bq[1]
		c02 += av0 * bq[2]
		c03 += av0 * bq[3]
		c10 += av1 * bq[0]
		c11 += av1 * bq[1]
		c12 += av1 * bq[2]
		c13 += av1 * bq[3]
	}
	packedStore(c, w, add, c00, c01, c02, c03)
	packedStore(c[ldc:], w, add, c10, c11, c12, c13)
}

// packedMicro1x4 is the single-row tail microkernel.
func packedMicro1x4(c []float32, a []float32, panel []float32, k0, kMax, w int, add bool) {
	var c0, c1, c2, c3 float32
	for kk := k0; kk < kMax; kk++ {
		bq := panel[kk*packNR : kk*packNR+packNR : kk*packNR+packNR]
		av := a[kk]
		c0 += av * bq[0]
		c1 += av * bq[1]
		c2 += av * bq[2]
		c3 += av * bq[3]
	}
	packedStore(c, w, add, c0, c1, c2, c3)
}

// runPackedPanels executes the GEBP driver against an ALREADY-PACKED
// panel-major B — either a pooled per-call buffer or a PackedWeights
// handle's version-stationary panels: k-blocks outermost (the first block
// initializes the output unless the caller accumulates; later blocks add),
// then panels (each panel's k-slab is the L1-resident operand), then packMR
// row blocks with a 1-row tail; ep is swept over the finished rows.
func runPackedPanels(out, a, panels []float32, m, k, n int, accum bool, ep RowEpilogue) {
	np := (n + packNR - 1) / packNR
	for k0 := 0; k0 < k; k0 += packKC {
		kMax := min(k0+packKC, k)
		add := accum || k0 > 0
		for p := 0; p < np; p++ {
			panel := panels[p*k*packNR : (p+1)*k*packNR]
			j0 := p * packNR
			w := min(packNR, n-j0)
			i := 0
			for ; i+packMR <= m; i += packMR {
				packedMicro2x4(out[i*n+j0:], n, a[i*k:], a[(i+1)*k:], panel, k0, kMax, w, add)
			}
			for ; i < m; i++ {
				packedMicro1x4(out[i*n+j0:], a[i*k:], panel, k0, kMax, w, add)
			}
		}
	}
	if ep != nil {
		applyEpilogue(ep, out, m, n)
	}
}

// matMulPackedEp is the packed backend's per-call entry: out[m,n] (+)=
// a[m,k] @ b[k,n] with ep fused over the finished rows, b packed into a
// pooled buffer for the duration of the call. The caller has already decided
// dispatch via usePacked; k ≥ 1 is required (the first k-block initializes
// the output).
func matMulPackedEp(out, a, b []float32, m, k, n int, accum bool, ep RowEpilogue) {
	np := (n + packNR - 1) / packNR
	pb := getPackBuf(np * k * packNR)
	packB(pb.data, b, k, n)
	runPackedPanels(out, a, pb.data, m, k, n, accum, ep)
	putPackBuf(pb)
}
