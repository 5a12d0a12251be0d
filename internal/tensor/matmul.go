package tensor

import (
	"fmt"
	"sync"

	"heteroswitch/internal/parallel"
)

// matmul kernel block size, chosen to keep a block of B rows of both
// operands inside L1 cache for float32 data.
const mmBlock = 64

// All kernels below preserve a strict per-accumulation-target operation
// order: for any output element, partial products are added in ascending
// inner-dimension order, exactly as the pre-tiled scalar kernels did. The
// register tiling (4-wide j unrolling) only changes WHICH targets are in
// flight at once, never the order of adds into one target, so results are
// bit-identical to the straightforward loops and independent of tiling.
//
// The three kernel bodies (matmulAcc, matMulTransB, matMulTransAAccRange)
// hand over to the AVX2 routines of vec_amd64.s when vecLive is set. Those
// widen the same idea from 4 targets in flight to 32: lanes across targets,
// a separate multiply and add per step (never an FMA), the same zero-skip —
// so they produce the Go loops' bits exactly, and the loops below remain the
// portable path (-tags purego, other architectures, CPUs without AVX2) and
// the reference the differential tests compare against. backend.go's tier
// comment states the rule in full.
//
// The *P variants additionally split the output rows (the M dimension, or
// the transposed-A result's row dimension) into parallel.Chunks-fixed
// contiguous blocks, one goroutine per block. Every output element is still
// computed entirely by one goroutine running the serial inner loops, so the
// per-target operation order — and therefore the result — is bit-identical
// to the serial kernels at every budget. Budget 1 (or a matrix too small
// for its grain) takes the serial code path byte-for-byte.

// MatMul returns a @ b for 2-D tensors a[m,k] and b[k,n] as a new [m,n]
// tensor.
func MatMul(a, b *Tensor) *Tensor {
	if len(a.shape) != 2 || len(b.shape) != 2 {
		panic(fmt.Sprintf("tensor: MatMul needs 2-D tensors, have %v @ %v", a.shape, b.shape))
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dims %d != %d", k, k2))
	}
	out := New(m, n)
	MatMulInto(out, a, b)
	return out
}

// MatMulInto computes out = a @ b, overwriting out. out must be [m,n].
func MatMulInto(out, a, b *Tensor) {
	m, k := a.shape[0], a.shape[1]
	n := b.shape[1]
	if out.shape[0] != m || out.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulInto out shape %v, want [%d %d]", out.shape, m, n))
	}
	MatMulSlices(out.data, a.data, b.data, m, k, n)
}

// MatMulAccInto computes out += a @ b without zeroing out first.
func MatMulAccInto(out, a, b *Tensor) {
	m, k := a.shape[0], a.shape[1]
	n := b.shape[1]
	if b.shape[0] != k || out.shape[0] != m || out.shape[1] != n {
		panic("tensor: MatMulAccInto shape mismatch")
	}
	matmulAcc(out.data, a.data, b.data, m, k, n)
}

// MatMulSlices computes out = a @ b on raw row-major slices: out[m,n],
// a[m,k], b[k,n]. It is the header-free entry point used by layers that
// multiply sub-slices of larger buffers (e.g. grouped convolution) on the
// per-batch hot path, where wrapping every operand in a Tensor would
// allocate.
func MatMulSlices(out, a, b []float32, m, k, n int) {
	clear(out[:m*n])
	matmulAcc(out, a, b, m, k, n)
}

// matmulAcc is the blocked, register-tiled kernel: out[m,n] += a[m,k] @
// b[k,n], all row-major flat slices. Within each k-block, four output
// columns are accumulated in registers across the whole block, quartering
// the load/store traffic on out relative to a scalar j sweep.
func matmulAcc(out, a, b []float32, m, k, n int) {
	if vecLive {
		gemmAccVec(out, n, a, k, 1, b, n, m, n, k)
		return
	}
	for i0 := 0; i0 < m; i0 += mmBlock {
		iMax := min(i0+mmBlock, m)
		for k0 := 0; k0 < k; k0 += mmBlock {
			kMax := min(k0+mmBlock, k)
			for i := i0; i < iMax; i++ {
				arow := a[i*k+k0 : i*k+kMax]
				orow := out[i*n : i*n+n]
				j := 0
				for ; j+4 <= n; j += 4 {
					c0, c1, c2, c3 := orow[j], orow[j+1], orow[j+2], orow[j+3]
					bi := k0*n + j
					for _, av := range arow {
						if av != 0 {
							bq := b[bi : bi+4 : bi+4]
							c0 += av * bq[0]
							c1 += av * bq[1]
							c2 += av * bq[2]
							c3 += av * bq[3]
						}
						bi += n
					}
					orow[j], orow[j+1], orow[j+2], orow[j+3] = c0, c1, c2, c3
				}
				for ; j < n; j++ {
					c := orow[j]
					bi := k0*n + j
					for _, av := range arow {
						if av != 0 {
							c += av * b[bi]
						}
						bi += n
					}
					orow[j] = c
				}
			}
		}
	}
}

// MatMulTransB returns a @ bᵀ for a[m,k] and b[n,k] as [m,n]. This avoids
// materializing the transpose in backward passes.
func MatMulTransB(a, b *Tensor) *Tensor {
	m, n := transBDims(a, b)
	out := New(m, n)
	matMulTransB(out.data, a.data, b.data, m, a.shape[1], n, false)
	return out
}

// MatMulTransBInto computes out = a @ bᵀ into the existing [m,n] tensor.
func MatMulTransBInto(out, a, b *Tensor) {
	m, n := transBDims(a, b)
	if out.shape[0] != m || out.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulTransBInto out shape %v, want [%d %d]", out.shape, m, n))
	}
	matMulTransB(out.data, a.data, b.data, m, a.shape[1], n, false)
}

// MatMulTransBAccInto computes out += a @ bᵀ for a[m,k] and b[n,k] into the
// existing [m,n] tensor — the allocation-free weight-gradient accumulation
// for convolution (dW += dy @ colᵀ) on the per-batch training hot path.
func MatMulTransBAccInto(out, a, b *Tensor) {
	m, n := transBDims(a, b)
	if out.shape[0] != m || out.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulTransBAccInto out shape %v, want [%d %d]", out.shape, m, n))
	}
	matMulTransB(out.data, a.data, b.data, m, a.shape[1], n, true)
}

// MatMulTransBAccSlices is MatMulTransBAccInto on raw row-major slices:
// out[m,n] += a[m,k] @ b[n,k]ᵀ.
func MatMulTransBAccSlices(out, a, b []float32, m, k, n int) {
	matMulTransB(out, a, b, m, k, n, true)
}

func transBDims(a, b *Tensor) (m, n int) {
	if len(a.shape) != 2 || len(b.shape) != 2 {
		panic("tensor: MatMulTransB needs 2-D tensors")
	}
	if a.shape[1] != b.shape[1] {
		panic(fmt.Sprintf("tensor: MatMulTransB inner dims %d != %d", a.shape[1], b.shape[1]))
	}
	return a.shape[0], b.shape[0]
}

// matMulTransB computes out[m,n] (+)= a[m,k] @ b[n,k]ᵀ. Each output element
// is a dot product of two contiguous rows; four dot products run at once so
// every load of a's row feeds four accumulators.
func matMulTransB(out, a, b []float32, m, k, n int, acc bool) {
	if vecLive && n >= vecDotMinCols {
		dotTransBVec(out, a, b, m, k, n, acc)
		return
	}
	for i := 0; i < m; i++ {
		arow := a[i*k : i*k+k]
		orow := out[i*n : i*n+n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b[j*k : j*k+k]
			b1 := b[(j+1)*k : (j+2)*k]
			b2 := b[(j+2)*k : (j+3)*k]
			b3 := b[(j+3)*k : (j+4)*k]
			var s0, s1, s2, s3 float32
			for x, av := range arow {
				s0 += av * b0[x]
				s1 += av * b1[x]
				s2 += av * b2[x]
				s3 += av * b3[x]
			}
			if acc {
				orow[j] += s0
				orow[j+1] += s1
				orow[j+2] += s2
				orow[j+3] += s3
			} else {
				orow[j], orow[j+1], orow[j+2], orow[j+3] = s0, s1, s2, s3
			}
		}
		for ; j < n; j++ {
			brow := b[j*k : j*k+k]
			var s float32
			for x, av := range arow {
				s += av * brow[x]
			}
			if acc {
				orow[j] += s
			} else {
				orow[j] = s
			}
		}
	}
}

// MatMulTransA returns aᵀ @ b for a[k,m] and b[k,n] as [m,n], used for
// weight-gradient computation (xᵀ @ dy).
func MatMulTransA(a, b *Tensor) *Tensor {
	if len(a.shape) != 2 || len(b.shape) != 2 {
		panic("tensor: MatMulTransA needs 2-D tensors")
	}
	out := New(a.shape[1], b.shape[1])
	MatMulTransAAccInto(out, a, b)
	return out
}

// MatMulTransAAccInto computes out += aᵀ @ b for a[k,m] and b[k,n] into the
// existing [m,n] tensor — the allocation-free weight-gradient accumulation
// (Grad += xᵀ @ dy) on the per-batch training hot path.
func MatMulTransAAccInto(out, a, b *Tensor) {
	if len(a.shape) != 2 || len(b.shape) != 2 {
		panic("tensor: MatMulTransAAccInto needs 2-D tensors")
	}
	k, m := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransAAccInto inner dims %d != %d", k, k2))
	}
	if out.shape[0] != m || out.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulTransAAccInto out shape %v, want [%d %d]", out.shape, m, n))
	}
	MatMulTransAAccSlices(out.data, a.data, b.data, k, m, n)
}

// MatMulTransAAccSlices is MatMulTransAAccInto on raw row-major slices:
// out[m,n] += a[k,m]ᵀ @ b[k,n]. Convolution's input-gradient lowering
// (dcol += Wᵀ @ dy) uses it directly, instead of materializing the weight
// transpose per sample.
func MatMulTransAAccSlices(out, a, b []float32, k, m, n int) {
	matMulTransAAccRange(out, a, b, k, m, n, 0, m)
}

// matMulTransAAccRange is MatMulTransAAccSlices restricted to output rows
// [i0, i1) — the row-parallel building block. out is still indexed with full
// row stride n from row 0.
func matMulTransAAccRange(out, a, b []float32, k, m, n, i0, i1 int) {
	if vecLive {
		if i0 < i1 && k > 0 && n > 0 {
			gemmAccVec(out[i0*n:], n, a[i0:], 1, m, b, n, i1-i0, n, k)
		}
		return
	}
	// out[i,j] += Σ_x a[x,i]·b[x,j], with x ascending per target and four
	// output columns held in registers across each x block. Blocking over x
	// keeps the strided a column (stride m) and the touched b rows resident
	// while the j sweep re-reads them; per-target add order stays x
	// ascending across blocks, so results match the scalar loop exactly.
	for x0 := 0; x0 < k; x0 += mmBlock {
		xMax := min(x0+mmBlock, k)
		for i := i0; i < i1; i++ {
			orow := out[i*n : i*n+n]
			j := 0
			for ; j+4 <= n; j += 4 {
				c0, c1, c2, c3 := orow[j], orow[j+1], orow[j+2], orow[j+3]
				ai, bi := x0*m+i, x0*n+j
				for x := x0; x < xMax; x++ {
					if av := a[ai]; av != 0 {
						bq := b[bi : bi+4 : bi+4]
						c0 += av * bq[0]
						c1 += av * bq[1]
						c2 += av * bq[2]
						c3 += av * bq[3]
					}
					ai += m
					bi += n
				}
				orow[j], orow[j+1], orow[j+2], orow[j+3] = c0, c1, c2, c3
			}
			for ; j < n; j++ {
				c := orow[j]
				ai, bi := x0*m+i, x0*n+j
				for x := x0; x < xMax; x++ {
					if av := a[ai]; av != 0 {
						c += av * b[bi]
					}
					ai += m
					bi += n
				}
				orow[j] = c
			}
		}
	}
}

// Parallel kernel entry points ------------------------------------------------
//
// Each *P function is the corresponding serial kernel parallelized over
// output rows under an intra-op budget: par is the maximum number of chunks
// in flight (1 ⇒ the serial kernel, byte for byte). Work-based grains keep
// small matmuls serial, so callers can pass their budget unconditionally.

// mmGrain converts one output row's work (k·n multiply-adds) into the
// minimum rows per parallel chunk.
func mmGrain(k, n int) int { return parallel.GrainFor(k * n) }

// RowEpilogue post-processes completed output rows of a matmul in place —
// bias adds and activation functions fused into the kernel call. The *PEp
// kernels apply it INSIDE each parallel chunk, right after the chunk's rows
// are computed, so the epilogue runs on cache-warm data and the output is
// never re-traversed by a separate layer pass. Apply receives the global row
// index r and the row slice out[r*n : (r+1)*n].
//
// Apply must be safe for concurrent calls on distinct rows (chunks run in
// parallel): implementations read shared state but mutate only the row.
// Because the epilogue is row-local, fused results are bit-identical at
// every budget, exactly like the unfused kernels.
type RowEpilogue interface {
	Apply(row []float32, r int)
}

// mmTask is the pooled parallel.Runner behind the *P kernels; recycling it
// keeps the parallel dispatch path free of steady-state allocation.
type mmTask struct {
	kind      mmKind
	out, a, b []float32
	k, n, m   int
	acc       bool
	ep        RowEpilogue
}

type mmKind uint8

const (
	mmAB     mmKind = iota // out[rows] = a[rows] @ b
	mmTransB               // out[rows] (+)= a[rows] @ bᵀ
	mmTransA               // out[rows] += aᵀ @ b, rows of the result
)

var mmTaskPool = sync.Pool{New: func() any { return new(mmTask) }}

// Run implements parallel.Runner on a row range of the output.
func (t *mmTask) Run(_, lo, hi int) {
	switch t.kind {
	case mmAB:
		o := t.out[lo*t.n : hi*t.n]
		if !t.acc {
			clear(o)
		}
		matmulAcc(o, t.a[lo*t.k:hi*t.k], t.b, hi-lo, t.k, t.n)
	case mmTransB:
		matMulTransB(t.out[lo*t.n:hi*t.n], t.a[lo*t.k:hi*t.k], t.b, hi-lo, t.k, t.n, t.acc)
	case mmTransA:
		matMulTransAAccRange(t.out, t.a, t.b, t.k, t.m, t.n, lo, hi)
	}
	if t.ep != nil {
		applyEpilogue(t.ep, t.out, t.n, lo, hi)
	}
}

// applyEpilogue runs ep over output rows [lo, hi).
func applyEpilogue(ep RowEpilogue, out []float32, n, lo, hi int) {
	for r := lo; r < hi; r++ {
		ep.Apply(out[r*n:(r+1)*n], r)
	}
}

func runMMTask(par, rows int, fill mmTask) {
	t := mmTaskPool.Get().(*mmTask)
	*t = fill
	parallel.Run(par, rows, mmGrain(t.k, t.n), t)
	*t = mmTask{} // drop slice references before pooling
	mmTaskPool.Put(t)
}

// MatMulSlicesP is MatMulSlices with output rows computed in parallel under
// the given intra-op budget.
func MatMulSlicesP(par int, out, a, b []float32, m, k, n int) {
	if par <= 1 {
		MatMulSlices(out, a, b, m, k, n)
		return
	}
	runMMTask(par, m, mmTask{kind: mmAB, out: out, a: a, b: b, k: k, n: n})
}

// MatMulIntoP is MatMulInto with output rows computed in parallel under the
// given intra-op budget.
func MatMulIntoP(par int, out, a, b *Tensor) {
	m, k := a.shape[0], a.shape[1]
	n := b.shape[1]
	if b.shape[0] != k || out.shape[0] != m || out.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulIntoP out shape %v, want [%d %d]", out.shape, m, n))
	}
	MatMulSlicesP(par, out.data, a.data, b.data, m, k, n)
}

// MatMulTransBIntoP is MatMulTransBInto with output rows computed in
// parallel under the given intra-op budget.
func MatMulTransBIntoP(par int, out, a, b *Tensor) {
	m, n := transBDims(a, b)
	if out.shape[0] != m || out.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulTransBIntoP out shape %v, want [%d %d]", out.shape, m, n))
	}
	k := a.shape[1]
	if par <= 1 {
		matMulTransB(out.data, a.data, b.data, m, k, n, false)
		return
	}
	runMMTask(par, m, mmTask{kind: mmTransB, out: out.data, a: a.data, b: b.data, k: k, n: n})
}

// MatMulTransBAccSlicesP is MatMulTransBAccSlices with output rows computed
// in parallel under the given intra-op budget.
func MatMulTransBAccSlicesP(par int, out, a, b []float32, m, k, n int) {
	if par <= 1 {
		matMulTransB(out, a, b, m, k, n, true)
		return
	}
	runMMTask(par, m, mmTask{kind: mmTransB, out: out, a: a, b: b, k: k, n: n, acc: true})
}

// MatMulTransAAccIntoP is MatMulTransAAccInto with the result's rows
// computed in parallel under the given intra-op budget.
func MatMulTransAAccIntoP(par int, out, a, b *Tensor) {
	if par <= 1 {
		MatMulTransAAccInto(out, a, b)
		return
	}
	k, m := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransAAccIntoP inner dims %d != %d", k, k2))
	}
	if out.shape[0] != m || out.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulTransAAccIntoP out shape %v, want [%d %d]", out.shape, m, n))
	}
	MatMulTransAAccSlicesP(par, out.data, a.data, b.data, k, m, n)
}

// MatMulTransAAccSlicesP is MatMulTransAAccSlices with the result's rows
// computed in parallel under the given intra-op budget. The per-row work is
// k·n multiply-adds (a full strided column of a), the same grain unit as the
// other kernels.
func MatMulTransAAccSlicesP(par int, out, a, b []float32, k, m, n int) {
	if par <= 1 {
		matMulTransAAccRange(out, a, b, k, m, n, 0, m)
		return
	}
	runMMTask(par, m, mmTask{kind: mmTransA, out: out, a: a, b: b, k: k, m: m, n: n})
}

// Epilogue-fused kernel entry points ------------------------------------------
//
// The *PEp kernels are the inference fast path's fused matmuls: out = a @ b
// with ep applied to each completed output row inside the chunk that computed
// it. Bias adds and activations therefore cost one extra sweep over rows that
// are still cache-resident, instead of whole separate layer passes over the
// output tensor. A nil ep degrades to the plain kernel.
//
// These entry points — and only these — are the TOLERANCE tier: they
// dispatch through the process-wide Backend (see backend.go) and may run
// the packed GEBP kernel instead of the oracle kernels. Every unfused entry
// point above stays on the oracle kernels unconditionally.

// MatMulSlicesPEp is MatMulSlicesP with a fused row epilogue.
func MatMulSlicesPEp(par int, out, a, b []float32, m, k, n int, ep RowEpilogue) {
	if usePacked(m, k, n) {
		matMulPackedEp(par, out, a, b, m, k, n, false, ep)
		return
	}
	if par <= 1 {
		MatMulSlices(out, a, b, m, k, n)
		if ep != nil {
			applyEpilogue(ep, out, n, 0, m)
		}
		return
	}
	runMMTask(par, m, mmTask{kind: mmAB, out: out, a: a, b: b, k: k, n: n, ep: ep})
}

// MatMulIntoPEp is MatMulIntoP with a fused row epilogue.
func MatMulIntoPEp(par int, out, a, b *Tensor, ep RowEpilogue) {
	m, k := a.shape[0], a.shape[1]
	n := b.shape[1]
	if b.shape[0] != k || out.shape[0] != m || out.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulIntoPEp out shape %v, want [%d %d]", out.shape, m, n))
	}
	MatMulSlicesPEp(par, out.data, a.data, b.data, m, k, n, ep)
}

// MatMulAccSlicesPEp is MatMulSlicesPEp without the initial clear:
// out[m,n] += a[m,k] @ b[k,n], ep fused per completed row chunk. The frozen
// Residual skip-path fold uses it to add the projected input onto the body
// output in one pass.
func MatMulAccSlicesPEp(par int, out, a, b []float32, m, k, n int, ep RowEpilogue) {
	if usePacked(m, k, n) {
		matMulPackedEp(par, out, a, b, m, k, n, true, ep)
		return
	}
	if par <= 1 {
		matmulAcc(out, a, b, m, k, n)
		if ep != nil {
			applyEpilogue(ep, out, n, 0, m)
		}
		return
	}
	runMMTask(par, m, mmTask{kind: mmAB, acc: true, out: out, a: a, b: b, k: k, n: n, ep: ep})
}
