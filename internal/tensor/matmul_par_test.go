package tensor

import (
	"fmt"
	"math"
	"testing"

	"heteroswitch/internal/frand"
)

// The entry points promise BIT-identical results to the serial kernel bodies
// (called directly here as the reference) at every budget: row partitioning
// never splits a single output element's accumulation, so not even float
// rounding may differ. Every comparison here is exact equality, across shapes
// chosen to produce ragged partitions (M and N not multiples of the tile
// width, the worker count, or each other) and budgets from serial to beyond
// the machine.

var parShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{3, 5, 7},
	{8, 64, 128},
	{13, 17, 19},
	{31, 64, 67},   // grain-sized rows, odd n
	{65, 64, 67},   // > one tile of ragged rows
	{65, 33, 129},  // everything odd
	{128, 96, 100}, // big enough that every budget actually splits
}

var parBudgets = []int{1, 2, 3, 4, 8, 16}

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

// TestMatMulIntoPBitIdentical covers out = a @ b.
func TestMatMulIntoPBitIdentical(t *testing.T) {
	r := frand.New(21)
	for _, sz := range parShapes {
		a := Randn(r, 1, sz.m, sz.k)
		b := Randn(r, 1, sz.k, sz.n)
		want := New(sz.m, sz.n)
		matmulAcc(want.Data(), a.Data(), b.Data(), sz.m, sz.k, sz.n)
		for _, par := range parBudgets {
			got := Randn(r, 1, sz.m, sz.n) // junk, must be fully overwritten
			MatMulIntoP(par, got, a, b)
			exactEqual(t, fmt.Sprintf("MatMulIntoP(%d) %dx%dx%d", par, sz.m, sz.k, sz.n),
				got.Data(), want.Data())
		}
	}
}

// TestMatMulTransBIntoPBitIdentical covers out = a @ bᵀ and the accumulating
// slice form out += a @ bᵀ.
func TestMatMulTransBIntoPBitIdentical(t *testing.T) {
	r := frand.New(22)
	for _, sz := range parShapes {
		a := Randn(r, 1, sz.m, sz.k)
		b := Randn(r, 1, sz.n, sz.k)
		want := New(sz.m, sz.n)
		matMulTransB(want.Data(), a.Data(), b.Data(), sz.m, sz.k, sz.n, false)
		base := Randn(r, 1, sz.m, sz.n)
		wantAcc := base.Clone()
		matMulTransB(wantAcc.Data(), a.Data(), b.Data(), sz.m, sz.k, sz.n, true)
		for _, par := range parBudgets {
			got := Randn(r, 1, sz.m, sz.n)
			MatMulTransBIntoP(par, got, a, b)
			exactEqual(t, fmt.Sprintf("MatMulTransBIntoP(%d) %dx%dx%d", par, sz.m, sz.k, sz.n),
				got.Data(), want.Data())

			gotAcc := base.Clone()
			gemm(par, mmTask{kind: mmTransB, out: gotAcc.Data(), a: a.Data(), b: b.Data(), m: sz.m, k: sz.k, n: sz.n, acc: true})
			exactEqual(t, fmt.Sprintf("gemm(%d) out += a @ bᵀ %dx%dx%d", par, sz.m, sz.k, sz.n),
				gotAcc.Data(), wantAcc.Data())
		}
	}
}

// TestMatMulTransAAccPBitIdentical covers out += aᵀ @ b (the weight-gradient
// kernel), whose parallel dimension is the result's rows (a's columns).
func TestMatMulTransAAccPBitIdentical(t *testing.T) {
	r := frand.New(23)
	for _, sz := range parShapes {
		a := Randn(r, 1, sz.k, sz.m)
		b := Randn(r, 1, sz.k, sz.n)
		base := Randn(r, 1, sz.m, sz.n)
		want := base.Clone()
		matMulTransAAccRange(want.Data(), a.Data(), b.Data(), sz.k, sz.m, sz.n, 0, sz.m)
		for _, par := range parBudgets {
			got := base.Clone()
			MatMulTransAAccIntoP(par, got, a, b)
			exactEqual(t, fmt.Sprintf("MatMulTransAAccIntoP(%d) %dx%dx%d", par, sz.m, sz.k, sz.n),
				got.Data(), want.Data())

			gotS := base.Clone()
			MatMulTransAAccSlicesP(par, gotS.Data(), a.Data(), b.Data(), sz.k, sz.m, sz.n)
			exactEqual(t, fmt.Sprintf("MatMulTransAAccSlicesP(%d) %dx%dx%d", par, sz.m, sz.k, sz.n),
				gotS.Data(), want.Data())
		}
	}
}

// TestMatMulSlicesPBitIdentical covers the header-free entry point the conv
// lowering uses.
func TestMatMulSlicesPBitIdentical(t *testing.T) {
	r := frand.New(24)
	for _, sz := range parShapes {
		a := Randn(r, 1, sz.m, sz.k)
		b := Randn(r, 1, sz.k, sz.n)
		want := make([]float32, sz.m*sz.n)
		matmulAcc(want, a.Data(), b.Data(), sz.m, sz.k, sz.n)
		for _, par := range parBudgets {
			got := Randn(r, 1, sz.m, sz.n)
			MatMulSlicesP(par, got.Data(), a.Data(), b.Data(), sz.m, sz.k, sz.n, nil)
			exactEqual(t, fmt.Sprintf("MatMulSlicesP(%d) %dx%dx%d", par, sz.m, sz.k, sz.n),
				got.Data(), want)
		}
	}
}

// TestMatMulPZeroAllocSteadyState verifies the parallel dispatch path
// allocates nothing once warm — the kernels must be safe on the
// zero-allocation training hot path.
func TestMatMulPZeroAllocSteadyState(t *testing.T) {
	r := frand.New(25)
	a := Randn(r, 1, 128, 96)
	b := Randn(r, 1, 96, 100)
	out := New(128, 100)
	MatMulIntoP(4, out, a, b) // warm pool + task pools
	allocs := testing.AllocsPerRun(20, func() {
		MatMulIntoP(4, out, a, b)
	})
	if allocs != 0 {
		t.Fatalf("MatMulIntoP steady state allocates %.1f/op, want 0", allocs)
	}
}

// BenchmarkMatMulParallel extends BenchmarkMatMul with the intra-op
// dimension: the same kernels at budgets 1/2/4/8 on kernel-sized and
// larger-than-cache matrices.
func BenchmarkMatMulParallel(b *testing.B) {
	r := frand.New(12)
	for _, sz := range []struct{ m, k, n int }{{64, 64, 64}, {128, 128, 128}, {256, 256, 256}} {
		a := Randn(r, 1, sz.m, sz.k)
		bb := Randn(r, 1, sz.k, sz.n)
		bt := Randn(r, 1, sz.n, sz.k)
		at := Randn(r, 1, sz.k, sz.m)
		out := New(sz.m, sz.n)
		for _, par := range []int{1, 2, 4, 8} {
			name := func(op string) string {
				return fmt.Sprintf("%s/%dx%dx%d/par=%d", op, sz.m, sz.k, sz.n, par)
			}
			b.Run(name("Into"), func(b *testing.B) {
				benchVecArms(b, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						MatMulIntoP(par, out, a, bb)
					}
				})
			})
			b.Run(name("TransBInto"), func(b *testing.B) {
				benchVecArms(b, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						MatMulTransBIntoP(par, out, a, bt)
					}
				})
			})
			b.Run(name("TransAAccInto"), func(b *testing.B) {
				benchVecArms(b, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						MatMulTransAAccIntoP(par, out, at, bb)
					}
				})
			})
		}
	}
}
