package tensor

import (
	"fmt"

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
// slices, init +0 or (acc) out itself, and stores it through ep. The vector
// routine writes each output once with a row bias and act in its store; the
// Go path clears, accumulates and sweeps, and so does a column bias on either
// path.
func gemmAB(out, a, b []float32, m, k, n int, acc bool, ep epilogue) {
	switch {
	case vec.Live && !ep.cols:
		vec.Gemm(out, n, a, k, 1, b, n, m, n, k, acc, ep.bias, ep.act)
		return
	case vec.Live:
		vec.Gemm(out, n, a, k, 1, b, n, m, n, k, acc, nil, vec.ActIdentity)
	default:
		if !acc {
			clear(out[:m*n])
		}
		matmulAcc(out, a, b, m, k, n)
	}
	ep.sweep(out, m, n)
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

// matMulTransAAccRange computes rows [i0, i1) of out[m,n] += a[k,m]ᵀ @ b[k,n];
// gemm passes the whole range. out is still indexed with full row stride n
// from row 0.
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

type mmKind uint8

const (
	mmAB     mmKind = iota // out[m,n] (+)= a[m,k] @ b[k,n]
	mmTransB               // out[m,n] (+)= a[m,k] @ b[n,k]ᵀ
	mmTransA               // out[m,n] += a[k,m]ᵀ @ b[k,n]; always accumulates
)

func (kind mmKind) String() string { return [...]string{"a @ b", "a @ bᵀ", "aᵀ @ b"}[kind] }

// epilogue is a fused matmul's store as data: every output v becomes
// act(v + bias), with one bias per output row (a conv's channels) or, when
// cols is set, one per output column (a dense layer's units). A nil bias adds
// nothing.
type epilogue struct {
	bias []float32
	act  vec.Act
	cols bool
}

// sweep applies the epilogue over the finished rows of out[m,n].
func (e epilogue) sweep(out []float32, m, n int) {
	if e.bias == nil {
		if e.act != vec.ActIdentity {
			ApplyAct(out[:m*n], e.act)
		}
		return
	}
	for r := range m {
		row := out[r*n : (r+1)*n]
		if e.cols {
			colBiasAct(row, e.bias[:n], e.act)
		} else {
			BiasAct(row, e.bias[r], e.act)
		}
	}
}

// colBiasAct computes row[j] = act(row[j] + bias[j]) for every j of row.
func colBiasAct(row, bias []float32, act vec.Act) {
	bias = bias[:len(row)]
	if act != vec.ActReLU {
		for j := range row {
			row[j] += bias[j]
		}
		if act != vec.ActIdentity {
			ApplyAct(row, act)
		}
		return
	}
	for j, v := range row {
		if v += bias[j]; v > 0 {
			row[j] = v
		} else {
			row[j] = 0
		}
	}
}

// mmTask is the one GEMM descriptor: every entry point fills one and hands it
// to gemm. out is [m,n] and k the reduction depth for every kind; acc keeps
// out's contents instead of overwriting them; the epilogue (a @ b only) is
// what the kernel stores.
type mmTask struct {
	kind      mmKind
	out, a, b []float32
	m, k, n   int
	acc       bool
	epilogue
}

// gemm is the one way in to the oracle kernels: the operand check, then the
// kernel for the descriptor's kind on the calling goroutine.
func gemm(t *mmTask) {
	if t.m < 0 || t.k < 0 || t.n < 0 || len(t.out) < t.m*t.n || len(t.a) < t.m*t.k || len(t.b) < t.k*t.n {
		panic(fmt.Sprintf("tensor: matmul %v with m=%d k=%d n=%d needs out %d, a %d, b %d elements, have %d, %d, %d",
			t.kind, t.m, t.k, t.n, t.m*t.n, t.m*t.k, t.k*t.n, len(t.out), len(t.a), len(t.b)))
	}
	switch t.kind {
	case mmAB:
		gemmAB(t.out[:t.m*t.n], t.a[:t.m*t.k], t.b, t.m, t.k, t.n, t.acc, t.epilogue)
	case mmTransB:
		matMulTransB(t.out[:t.m*t.n], t.a[:t.m*t.k], t.b, t.m, t.k, t.n, t.acc)
	case mmTransA:
		matMulTransAAccRange(t.out, t.a, t.b, t.k, t.m, t.n, 0, t.m)
	}
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
	gemm(&mmTask{kind: kind, out: out.data, a: a.data, b: b.data, m: m, k: k, n: n, acc: acc})
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
	gemm(&mmTask{kind: mmAB, out: out, a: a, b: b, m: m, k: k, n: n, epilogue: epilogue{bias: bias}})
}

// MatMulTransBInto computes out = a @ bᵀ for a[m,k], b[n,k], out[m,n],
// without materializing the transpose (dense input gradient dx = dy @ Wᵀ).
func MatMulTransBInto(out, a, b *Tensor) { gemmTensors(mmTransB, false, out, a, b) }

// MatMulTransBAccSlices computes out[m,n] += a[m,k] @ b[n,k]ᵀ on raw
// row-major slices — convolution's weight gradient dW += dy @ colᵀ.
func MatMulTransBAccSlices(out, a, b []float32, m, k, n int) {
	gemm(&mmTask{kind: mmTransB, out: out, a: a, b: b, m: m, k: k, n: n, acc: true})
}

// MatMulTransAAccInto computes out += aᵀ @ b for a[k,m], b[k,n], out[m,n] —
// the dense weight gradient Grad += xᵀ @ dy, with no temporary.
func MatMulTransAAccInto(out, a, b *Tensor) { gemmTensors(mmTransA, true, out, a, b) }

// MatMulTransAAccSlices is MatMulTransAAccInto on raw row-major slices.
// Convolution's input-gradient lowering (dcol += Wᵀ @ dy) reads the weights
// in place through it instead of materializing their transpose per sample.
func MatMulTransAAccSlices(out, a, b []float32, k, m, n int) {
	gemm(&mmTask{kind: mmTransA, out: out, a: a, b: b, m: m, k: k, n: n, acc: true})
}

// matMulEp is the TOLERANCE tier's raw-slice entry, reached only through the
// weight-stationary MatMulW{A,B}SlicesEp of weights.go: out[m,n] = a @ b
// stored through ep. It — and nothing above — dispatches through the
// process-wide Backend (backend.go) and may run the packed GEBP kernel
// instead of the oracle kernels.
func matMulEp(out, a, b []float32, m, k, n int, ep epilogue) {
	if usePacked(m, k, n) {
		matMulPackedEp(out, a, b, m, k, n, ep)
		return
	}
	gemm(&mmTask{kind: mmAB, out: out, a: a, b: b, m: m, k: k, n: n, epilogue: ep})
}
