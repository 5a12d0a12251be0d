package tensor

import (
	"math"
	"testing"

	"heteroswitch/internal/frand"
	"heteroswitch/internal/parallel"
)

// gemm's parallel branch — the frozen forward's matmuls — promises
// BIT-identical results to the serial kernel bodies at every budget: row
// partitioning never splits a single output element's accumulation, so not
// even float rounding may differ. Comparisons are exact equality, across
// shapes chosen to produce ragged partitions (M and N not multiples of the
// tile width, the worker count, or each other) and budgets from serial to
// beyond the machine.

var parShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{3, 5, 7},
	{8, 64, 128},
	{13, 17, 19},
	{31, 64, 67},  // grain-sized rows, odd n
	{65, 64, 67},  // > one tile of ragged rows
	{65, 33, 129}, // everything odd
	{128, 96, 100},
	{64, 64, 256},  // above the dispatch floor: two tile-aligned 32-row halves
	{100, 64, 256}, // above the floor: at budget 3, ragged chunks at rows 33 and 66
}

var parBudgets = []int{1, 2, 3, 4, 8, 16}

// requireSplit fails unless an m×k×n GEMM splits into chunks at budget 2: a
// budget test on shapes below the dispatch floor would compare the serial
// kernel with itself.
func requireSplit(t *testing.T, m, k, n int) {
	t.Helper()
	if c := parallel.Chunks(2, m, mmGrain(k, n)); c < 2 {
		t.Fatalf("%dx%dx%d runs in %d chunk at budget 2; the budget test needs a split", m, k, n, c)
	}
}

func exactEqual(t *testing.T, name string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) { // bits: tells -0 from +0
			t.Fatalf("%s: element %d differs: %v != %v (must be bit-identical)", name, i, got[i], want[i])
		}
	}
}

// TestMatMulPZeroAllocSteadyState verifies gemm's parallel dispatch path
// allocates nothing once warm — the frozen forward's matmuls must be safe on
// the zero-allocation inference hot path.
func TestMatMulPZeroAllocSteadyState(t *testing.T) {
	forceBackend(t, BackendSerial)
	r := frand.New(25)
	const m, k, n = 128, 96, 100
	requireSplit(t, m, k, n)
	a := Randn(r, 1, m, k)
	b := Randn(r, 1, k, n)
	out := New(m, n)
	matMulEp(4, out.Data(), a.Data(), b.Data(), m, k, n, false, nil) // warm pool + task pools
	allocs := testing.AllocsPerRun(20, func() {
		matMulEp(4, out.Data(), a.Data(), b.Data(), m, k, n, false, nil)
	})
	if allocs != 0 {
		t.Fatalf("parallel matMulEp steady state allocates %.1f/op, want 0", allocs)
	}
}
