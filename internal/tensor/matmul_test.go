package tensor

import (
	"fmt"
	"math"
	"testing"

	"heteroswitch/internal/frand"
)

// matShapes are ragged GEMM shapes: M and N not multiples of the tile width
// or of each other.
var matShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{3, 5, 7},
	{8, 64, 128},
	{13, 17, 19},
	{31, 64, 67},
	{65, 64, 67},  // > one tile of ragged rows
	{65, 33, 129}, // everything odd
	{128, 96, 100},
	{64, 64, 256},
	{100, 64, 256},
}

// exactEqual fails unless got and want hold the same float32 bits.
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

// TestMatMulEpilogueBitIdentical: the fused epilogue is row-local, so a
// fused kernel must equal the unfused kernel followed by the same per-row
// pass, bit for bit. Pinned to the serial backend: this is the oracle fused
// path's contract; the packed backend's tolerance contract is covered in
// packed_test.go.
func TestMatMulEpilogueBitIdentical(t *testing.T) {
	forceBackend(t, BackendSerial)
	r := frand.New(79)
	for _, sz := range matShapes {
		a := Randn(r, 1, sz.m, sz.k)
		b := Randn(r, 1, sz.k, sz.n)
		bias := Randn(r, 1, sz.m)
		ep := &testEpilogue{bias: bias.Data()}
		want := New(sz.m, sz.n)
		matmulAcc(want.Data(), a.Data(), b.Data(), sz.m, sz.k, sz.n)
		for i := 0; i < sz.m; i++ {
			ep.Apply(want.Data()[i*sz.n:(i+1)*sz.n], i)
		}
		got := Randn(r, 1, sz.m, sz.n)
		matMulEp(got.Data(), a.Data(), b.Data(), sz.m, sz.k, sz.n, false, ep)
		exactEqual(t, fmt.Sprintf("matMulEp %dx%dx%d", sz.m, sz.k, sz.n), got.Data(), want.Data())
	}
}

// testEpilogue is a bias-add + leaky clamp, enough to catch a skipped or
// double-applied row.
type testEpilogue struct{ bias []float32 }

func (e *testEpilogue) Apply(row []float32, r int) {
	b := e.bias[r]
	for j := range row {
		v := row[j] + b
		if v < 0 {
			v *= 0.5
		}
		row[j] = v
	}
}
