package tensor

import (
	"fmt"
	"sync"

	"heteroswitch/internal/parallel"
	"heteroswitch/internal/vec"
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
// The three kernel bodies (gemmAB, matMulTransB, matMulTransAAccRange) hand
// over to internal/vec's AVX2 routines when vec.Live is set; those widen the
// same idea from 4 targets in flight to 32 under the kernel rules of
// internal/vec's package doc, so the loops below remain the portable path and
// the reference the differential tests compare against.

// gemmAB computes out[m,n] = init + a[m,k] @ b[k,n], all row-major flat
// slices, init +0 or (acc) out itself, and stores row i as act(sum +
// bias[i]), a nil bias adding nothing. The vector routine writes each output
// once with that epilogue in its store; the Go path clears, accumulates and
// sweeps.
func gemmAB(out, a, b []float32, m, k, n int, acc bool, bias []float32, act vec.Act) {
	if vec.Live {
		vec.Gemm(out, n, a, k, 1, b, n, m, n, k, acc, bias, act)
		return
	}
	if !acc {
		clear(out[:m*n])
	}
	matmulAcc(out, a, b, m, k, n)
	switch {
	case bias != nil:
		for i, bi := range bias[:m] {
			rowBiasAct(out[i*n:(i+1)*n], bi, act)
		}
	case act != vec.ActIdentity:
		rowAct(out[:m*n], act)
	}
}

// rowBiasAct computes row[j] = act(row[j] + b): the Go form of the vector
// GEMM's store epilogue.
func rowBiasAct(row []float32, b float32, act vec.Act) {
	if act != vec.ActReLU {
		BiasAct(row, b, act == vec.ActHardSwish)
		return
	}
	for j, v := range row {
		if v += b; v > 0 {
			row[j] = v
		} else {
			row[j] = 0
		}
	}
}

// rowAct computes y[j] = act(y[j]), act ReLU or hard-swish, with no bias add,
// so a −0 sum stays −0 through hard-swish: the store epilogue of a bias-less
// GEMM.
func rowAct(y []float32, act vec.Act) {
	if act == vec.ActReLU {
		for j, v := range y {
			if !(v > 0) {
				y[j] = 0
			}
		}
		return
	}
	for j, v := range y {
		y[j] = v * HardSigmoid(v)
	}
}

// matmulAcc is the blocked, register-tiled Go kernel: out[m,n] += a[m,k] @
// b[k,n]. Within each k-block, four output columns are accumulated in
// registers across the whole block, quartering the load/store traffic on out
// relative to a scalar j sweep.
func matmulAcc(out, a, b []float32, m, k, n int) {
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

// matMulTransB computes out[m,n] (+)= a[m,k] @ b[n,k]ᵀ. Each output element
// is a dot product of two contiguous rows; four dot products run at once so
// every load of a's row feeds four accumulators.
func matMulTransB(out, a, b []float32, m, k, n int, acc bool) {
	if vec.Live && n >= vec.DotMinCols {
		vec.DotTransB(out, a, b, m, k, n, acc)
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

// matMulTransAAccRange computes rows [i0, i1) of out[m,n] += a[k,m]ᵀ @ b[k,n] —
// the row-parallel building block. out is still indexed with full row stride
// n from row 0.
func matMulTransAAccRange(out, a, b []float32, k, m, n, i0, i1 int) {
	if vec.Live {
		if i0 < i1 && k > 0 && n > 0 {
			vec.Gemm(out[i0*n:], n, a[i0:], 1, m, b, n, i1-i0, n, k, true, nil, vec.ActIdentity)
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

// Descriptor and dispatcher ---------------------------------------------------

// RowEpilogue post-processes completed output rows of a matmul in place —
// bias adds and activation functions fused into the kernel call. It is
// applied INSIDE each parallel chunk, right after the chunk's rows are
// computed, so the epilogue runs on cache-warm data and the output is never
// re-traversed by a separate layer pass. Apply receives the global row index
// r and the row slice out[r*n : (r+1)*n].
//
// Apply must be safe for concurrent calls on distinct rows (chunks run in
// parallel): implementations read shared state but mutate only the row.
// Because the epilogue is row-local, fused results are bit-identical at
// every budget, exactly like the unfused kernels.
type RowEpilogue interface {
	Apply(row []float32, r int)
}

type mmKind uint8

const (
	mmAB     mmKind = iota // out[m,n] (+)= a[m,k] @ b[k,n]
	mmTransB               // out[m,n] (+)= a[m,k] @ b[n,k]ᵀ
	mmTransA               // out[m,n] += a[k,m]ᵀ @ b[k,n]; always accumulates
)

func (kind mmKind) String() string { return [...]string{"a @ b", "a @ bᵀ", "aᵀ @ b"}[kind] }

// RowBias is a conv's epilogue as data: output row r is stored as
// act(sum + Bias[r]). The a @ b kernel applies it in its store; the packed
// and int8 kernels sweep it over their finished rows (Apply).
type RowBias struct {
	Bias []float32
	Act  vec.Act
}

// Apply implements RowEpilogue.
func (e *RowBias) Apply(row []float32, r int) { rowBiasAct(row, e.Bias[r], e.Act) }

// mmTask is the one GEMM descriptor: every entry point fills one and hands it
// to gemm. out is [m,n] and k the reduction depth for every kind; acc keeps
// out's contents instead of overwriting them; a non-nil bias (a @ b only) is
// the per-row RowBias epilogue, stored with the sums; ep, when non-nil, is
// swept per completed row range. It is also the parallel.Runner gemm pools.
type mmTask struct {
	kind      mmKind
	out, a, b []float32
	m, k, n   int
	acc       bool
	bias      []float32
	act       vec.Act
	ep        RowEpilogue
}

var mmTaskPool = sync.Pool{New: func() any { return new(mmTask) }}

// Run implements parallel.Runner on rows [lo, hi) of the output.
func (t *mmTask) Run(_, lo, hi int) {
	switch t.kind {
	case mmAB:
		bias := t.bias
		if bias != nil {
			bias = bias[lo:hi]
		}
		gemmAB(t.out[lo*t.n:hi*t.n], t.a[lo*t.k:hi*t.k], t.b, hi-lo, t.k, t.n, t.acc, bias, t.act)
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

// mmGrain converts one output row's work (k·n multiply-adds) into the
// minimum rows per parallel chunk.
func mmGrain(k, n int) int { return parallel.GrainFor(k * n) }

// gemm is the one way in to the oracle kernels. It holds the operand check,
// the serial branch and the pool: budget 1 runs the descriptor in place —
// the serial kernel byte for byte, nothing pooled, nothing allocated — and a
// larger budget splits the output rows into parallel.Chunks-fixed contiguous
// blocks, one goroutine per block. Every output element is still computed
// entirely by one goroutine running the serial inner loops, so the result is
// bit-identical at every budget, and the work-based grain keeps small
// matmuls serial, so callers pass their budget unconditionally.
func gemm(par int, t mmTask) {
	if t.m < 0 || t.k < 0 || t.n < 0 || len(t.out) < t.m*t.n || len(t.a) < t.m*t.k || len(t.b) < t.k*t.n {
		panic(fmt.Sprintf("tensor: matmul %v with m=%d k=%d n=%d needs out %d, a %d, b %d elements, have %d, %d, %d",
			t.kind, t.m, t.k, t.n, t.m*t.n, t.m*t.k, t.k*t.n, len(t.out), len(t.a), len(t.b)))
	}
	if t.bias != nil && len(t.bias) < t.m {
		panic(fmt.Sprintf("tensor: matmul %v with m=%d has %d biases", t.kind, t.m, len(t.bias)))
	}
	if par <= 1 {
		t.Run(0, 0, t.m)
		return
	}
	p := mmTaskPool.Get().(*mmTask)
	*p = t
	parallel.Run(par, t.m, mmGrain(t.k, t.n), p)
	*p = mmTask{} // drop slice references before pooling
	mmTaskPool.Put(p)
}

// gemmTensors is gemm on 2-D tensor headers: it reads m, k and n off the
// operands for the given kind and panics unless all three shapes agree.
func gemmTensors(kind mmKind, acc bool, out, a, b *Tensor) {
	if len(out.shape) != 2 || len(a.shape) != 2 || len(b.shape) != 2 {
		panic(fmt.Sprintf("tensor: matmul %v needs 2-D tensors, have out %v, a %v, b %v", kind, out.shape, a.shape, b.shape))
	}
	m, k := a.shape[0], a.shape[1]
	kb, n := b.shape[0], b.shape[1]
	switch kind {
	case mmTransB:
		kb, n = n, kb
	case mmTransA:
		m, k = k, m
	}
	if kb != k || out.shape[0] != m || out.shape[1] != n {
		panic(fmt.Sprintf("tensor: matmul %v shapes disagree: out %v, a %v, b %v", kind, out.shape, a.shape, b.shape))
	}
	gemm(1, mmTask{kind: kind, out: out.data, a: a.data, b: b.data, m: m, k: k, n: n, acc: acc})
}

// Entry points ----------------------------------------------------------------
//
// The training entry points run on the calling goroutine. The slice forms
// take sub-slices of larger buffers (grouped convolution) where wrapping
// every operand in a Tensor would allocate per batch.

// MatMulInto computes out = a @ b for a[m,k], b[k,n], out[m,n].
func MatMulInto(out, a, b *Tensor) { gemmTensors(mmAB, false, out, a, b) }

// MatMulSlices is MatMulInto on raw row-major slices, plus bias[i] on every
// element of row i when bias is non-nil — a conv's bias, added in the
// kernel's store.
func MatMulSlices(out, a, b []float32, m, k, n int, bias []float32) {
	gemm(1, mmTask{kind: mmAB, out: out, a: a, b: b, m: m, k: k, n: n, bias: bias})
}

// MatMulTransBInto computes out = a @ bᵀ for a[m,k], b[n,k], out[m,n],
// without materializing the transpose (dense input gradient dx = dy @ Wᵀ).
func MatMulTransBInto(out, a, b *Tensor) { gemmTensors(mmTransB, false, out, a, b) }

// MatMulTransBAccSlices computes out[m,n] += a[m,k] @ b[n,k]ᵀ on raw
// row-major slices — convolution's weight gradient dW += dy @ colᵀ.
func MatMulTransBAccSlices(out, a, b []float32, m, k, n int) {
	gemm(1, mmTask{kind: mmTransB, out: out, a: a, b: b, m: m, k: k, n: n, acc: true})
}

// MatMulTransAAccInto computes out += aᵀ @ b for a[k,m], b[k,n], out[m,n] —
// the dense weight gradient Grad += xᵀ @ dy, with no temporary.
func MatMulTransAAccInto(out, a, b *Tensor) { gemmTensors(mmTransA, true, out, a, b) }

// MatMulTransAAccSlices is MatMulTransAAccInto on raw row-major slices.
// Convolution's input-gradient lowering (dcol += Wᵀ @ dy) reads the weights
// in place through it instead of materializing their transpose per sample.
func MatMulTransAAccSlices(out, a, b []float32, k, m, n int) {
	gemm(1, mmTask{kind: mmTransA, out: out, a: a, b: b, m: m, k: k, n: n, acc: true})
}

// matMulEp is the TOLERANCE tier's raw-slice entry, reached only through the
// weight-stationary MatMulW{A,B}SlicesPEp of weights.go: out[m,n] (+)= a @ b
// with ep fused per completed row chunk. It — and nothing above — dispatches
// through the process-wide Backend (backend.go) and may run the packed GEBP
// kernel instead of the oracle kernels. The packed kernel sweeps every ep; the
// oracle kernel takes a *RowBias as data and stores it with the sums.
func matMulEp(par int, out, a, b []float32, m, k, n int, acc bool, ep RowEpilogue) {
	if usePacked(m, k, n) {
		matMulPackedEp(par, out, a, b, m, k, n, acc, ep)
		return
	}
	t := mmTask{kind: mmAB, out: out, a: a, b: b, m: m, k: k, n: n, acc: acc, ep: ep}
	if rb, ok := ep.(*RowBias); ok {
		t.bias, t.act, t.ep = rb.Bias, rb.Act, nil
	}
	gemm(par, t)
}
