package tensor

import (
	"fmt"
	"math"
	"testing"

	"heteroswitch/internal/frand"
	"heteroswitch/internal/israce"
	"heteroswitch/internal/vec"
	"heteroswitch/internal/vectest"
)

// The packed backend's contract (backend.go): forced serial is bit-identical
// to the oracle kernels, packed tracks them within 1e-5 with identical
// per-row argmax, and a warm packed dispatch — pack buffers included —
// allocates nothing.

// forceBackend pins the process-wide backend for one test and restores the
// previous selection afterwards.
func forceBackend(t *testing.T, b Backend) {
	t.Helper()
	prev := ActiveBackend()
	SetBackend(b)
	t.Cleanup(func() { SetBackend(prev) })
}

// packedShapes stresses the microkernel tails (rows not multiples of 8 or 4,
// columns not multiples of the panel width), the k-block boundary
// (k > packKC), and tiny shapes.
var packedShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{3, 5, 7},
	{5, 9, 6},
	{8, 64, 128},
	{13, 17, 19},
	{16, 768, 256}, // MLP-shaped, two k-block boundaries
	{31, 64, 67},
	{47, 300, 66}, // one k-block boundary, ragged everything
	{48, 48, 256}, // ConvNet-shaped
	{65, 33, 129},
}

func rowArgmax(row []float32) int {
	best := 0
	for j, v := range row {
		if v > row[best] {
			best = j
		}
	}
	return best
}

// runFusedEp computes out via matMulEp under a forced backend.
func runFusedEp(b Backend, out, a, bb []float32, m, k, n int, ep epilogue) {
	prev := ActiveBackend()
	SetBackend(b)
	defer SetBackend(prev)
	matMulEp(out, a, bb, m, k, n, ep)
}

// fanInScaled builds a k×n "weight" operand with Kaiming-style 1/sqrt(k)
// scaling, so matmul outputs are O(1) like real network activations and the
// frozen path's absolute 1e-5 tolerance is the meaningful unit (raw
// unit-variance B would grow sums to ~sqrt(k), below float32 ulp at 1e-5).
func fanInScaled(r *frand.RNG, k, n int) *Tensor {
	return Randn(r, 1/math.Sqrt(float64(k)), k, n)
}

// packedTolOK reports whether got is within the packed backend's tolerance
// of want: 1e-5 absolute, scaled by |want| for the rare value outside the
// unit range.
func packedTolOK(got, want float32) bool {
	w := math.Abs(float64(want))
	if w < 1 {
		w = 1
	}
	return math.Abs(float64(got)-float64(want)) <= 1e-5*w
}

// TestPackedMatchesOracle: forced packed vs forced serial on the fused entry
// point, every shape, ≤1e-5 (relative past unit magnitude) with
// identical per-row argmax — the contract the frozen path holds, for every
// fused store.
func TestPackedMatchesOracle(t *testing.T) {
	r := frand.New(91)
	for _, sz := range packedShapes {
		a := Randn(r, 1, sz.m, sz.k)
		b := fanInScaled(r, sz.k, sz.n)
		for _, ep := range fusedStores(r, sz.m, sz.n) {
			want := make([]float32, sz.m*sz.n)
			runFusedEp(BackendSerial, want, a.Data(), b.Data(), sz.m, sz.k, sz.n, ep)
			got := make([]float32, sz.m*sz.n)
			runFusedEp(BackendPacked, got, a.Data(), b.Data(), sz.m, sz.k, sz.n, ep)
			name := fmt.Sprintf("packed %dx%dx%d %s", sz.m, sz.k, sz.n, epName(ep))
			for i := range got {
				if !packedTolOK(got[i], want[i]) {
					t.Fatalf("%s: element %d packed %v vs serial %v exceeds 1e-5", name, i, got[i], want[i])
				}
			}
			for i := 0; i < sz.m; i++ {
				gr, wr := got[i*sz.n:(i+1)*sz.n], want[i*sz.n:(i+1)*sz.n]
				if rowArgmax(gr) != rowArgmax(wr) {
					t.Fatalf("%s: row %d argmax %d != %d", name, i, rowArgmax(gr), rowArgmax(wr))
				}
			}
		}
	}
}

// TestSerialBackendBitIdentical: with backend=serial the fused entries are
// bit-identical to the oracle kernels plus a separate epilogue pass — the
// pre-dispatch behavior, tol 0.
func TestSerialBackendBitIdentical(t *testing.T) {
	vectest.BothSettings(t, testSerialBackendBitIdentical)
}

func testSerialBackendBitIdentical(t *testing.T) {
	forceBackend(t, BackendSerial)
	fusedMatchesUnfused(t, frand.New(93), packedShapes)
}

// TestAutoDispatch pins the dispatch edges on the Go loops, as a -tags
// purego build runs them: auto stays on the oracle kernels at every shape —
// the frozen-eval shapes too, which it once packed — while a forced packed
// backend still dispatches, except at k == 0 (the packed driver's first
// k-block initializes the output), and serial never does. The vector side
// is TestAutoStaysOnOracleWhenVectorLive.
func TestAutoDispatch(t *testing.T) {
	vectest.SetLive(t, false)
	autoIsTheOracle(t)
}

// autoIsTheOracle checks, under the current vector setting, that auto
// neither dispatches to the packed kernel nor asks for a cached form of
// either orientation, that its fused output equals the serial backend's bit
// for bit at k > packKC (where the packed kernel reassociates), and that a
// forced backend still dispatches and packs what it consumes.
func autoIsTheOracle(t *testing.T) {
	t.Helper()
	forceBackend(t, BackendAuto)
	for _, sz := range [][3]int{{1, 768, 256}, {16, 768, 256}, {48, 48, 256}, {8, 8, 8}, {16, 0, 256}, {1024, 1024, 1024}} {
		if usePacked(sz[0], sz[1], sz[2]) {
			t.Fatalf("auto dispatches %v to the packed kernel", sz)
		}
	}
	for _, asA := range []bool{false, true} {
		if f, q := needForms(asA); f || q {
			t.Fatalf("auto asks for forms (float %v, int8 %v) of weights-as-A=%v", f, q, asA)
		}
	}
	r := frand.New(7)
	const m, k, n = 16, 768, 40
	a, b := Randn(r, 1, m*k).Data(), Randn(r, 1, k*n).Data()
	got, want := make([]float32, m*n), make([]float32, m*n)
	matMulEp(got, a, b, m, k, n, epilogue{})
	SetBackend(BackendSerial)
	matMulEp(want, a, b, m, k, n, epilogue{})
	exactEqual(t, "auto vs serial", got, want)
	if usePacked(1024, 1024, 1024) {
		t.Fatal("usePacked must be false when serial is forced")
	}

	SetBackend(BackendPacked)
	if !usePacked(16, 768, 256) {
		t.Fatal("a forced packed backend must still dispatch")
	}
	if usePacked(16, 0, 256) {
		t.Fatal("usePacked with k=0 must be false even when packed is forced")
	}
	if f, _ := needForms(false); !f {
		t.Fatal("a forced packed backend must still pack float panels")
	}
	SetBackend(BackendInt8)
	if _, q := needForms(true); !q {
		t.Fatal("a forced int8 backend must still quantize")
	}
}

// TestPackedZeroAllocSteadyState: a warm packed dispatch recycles its pack
// buffer through a pool — 0 allocs/op.
func TestPackedZeroAllocSteadyState(t *testing.T) {
	if israce.Enabled {
		t.Skip("sync.Pool drops items randomly under -race; alloc counts are nondeterministic")
	}
	forceBackend(t, BackendPacked)
	const m, k, n = 128, 48, 256 // the ConvNet expand pointwise at batch 128
	r := frand.New(95)
	a := Randn(r, 1, m, k)
	b := Randn(r, 1, k, n)
	ep := epilogue{bias: Randn(r, 1, m).Data(), act: vec.ActHardSwish}
	out := make([]float32, m*n)
	matMulEp(out, a.Data(), b.Data(), m, k, n, ep) // warm the pool
	allocs := testing.AllocsPerRun(20, func() {
		matMulEp(out, a.Data(), b.Data(), m, k, n, ep)
	})
	if allocs != 0 {
		t.Fatalf("packed dispatch steady state allocates %.1f/op, want 0", allocs)
	}
}

// BenchmarkMatMulPacked A/Bs the packed kernel against the oracle on the
// frozen path's real shapes (ConvNet pointwise/im2col matmuls, the MLP
// dense) and on square cache-pressure shapes.
func BenchmarkMatMulPacked(b *testing.B) {
	r := frand.New(96)
	for _, sz := range []struct{ m, k, n int }{
		{16, 768, 256}, // MLP dense eval batch
		{48, 48, 256},  // ConvNet expand pointwise
		{64, 64, 64},
		{128, 128, 128},
		{256, 256, 256},
	} {
		a := Randn(r, 1, sz.m, sz.k)
		bb := Randn(r, 1, sz.k, sz.n)
		out := make([]float32, sz.m*sz.n)
		for _, be := range []Backend{BackendSerial, BackendPacked} {
			b.Run(fmt.Sprintf("%dx%dx%d/backend=%s", sz.m, sz.k, sz.n, be), func(b *testing.B) {
				prev := ActiveBackend()
				SetBackend(be)
				defer SetBackend(prev)
				run := func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						matMulEp(out, a.Data(), bb.Data(), sz.m, sz.k, sz.n, epilogue{})
					}
				}
				if be == BackendSerial {
					vectest.BenchArms(b, run) // only the oracle kernels have a vector form
					return
				}
				run(b)
			})
		}
	}
}
