package tensor

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"heteroswitch/internal/frand"
	"heteroswitch/internal/vec"
	"heteroswitch/internal/vectest"
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
// fused kernel must equal the unfused kernel followed by the same sweep, bit
// for bit. Pinned to the serial backend: this is the oracle fused path's
// contract; the packed backend's tolerance contract is covered in
// packed_test.go.
func TestMatMulEpilogueBitIdentical(t *testing.T) {
	forceBackend(t, BackendSerial)
	fusedMatchesUnfused(t, frand.New(79), matShapes)
}

// fusedMatchesUnfused runs every fused store over shapes on the fused entry
// and holds it to matmulAcc followed by the epilogue's sweep.
func fusedMatchesUnfused(t *testing.T, r *frand.RNG, shapes []struct{ m, k, n int }) {
	t.Helper()
	for _, sz := range shapes {
		a := Randn(r, 1, sz.m, sz.k).Data()
		b := Randn(r, 1, sz.k, sz.n).Data()
		for _, ep := range fusedStores(r, sz.m, sz.n) {
			want := make([]float32, sz.m*sz.n)
			matmulAcc(want, a, b, sz.m, sz.k, sz.n)
			ep.sweep(want, sz.m, sz.n)
			got := Randn(r, 1, sz.m, sz.n).Data()
			matMulEp(got, a, b, sz.m, sz.k, sz.n, ep)
			exactEqual(t, fmt.Sprintf("matMulEp %dx%dx%d %s", sz.m, sz.k, sz.n, epName(ep)), got, want)
		}
	}
}

// fusedStores are the epilogues the fused-vs-unfused tests run: the bare
// store, then every act on a row bias and on a column bias.
func fusedStores(r *frand.RNG, m, n int) []epilogue {
	rows, cols := Randn(r, 1, m).Data(), Randn(r, 1, n).Data()
	eps := []epilogue{{}}
	for _, act := range []vec.Act{vec.ActIdentity, vec.ActReLU, vec.ActHardSwish} {
		eps = append(eps, epilogue{bias: rows, act: act}, epilogue{bias: cols, act: act, cols: true})
	}
	return eps
}

// epName names an epilogue in a failure message.
func epName(ep epilogue) string {
	return fmt.Sprintf("(bias %v, cols %v, act %d)", ep.bias != nil, ep.cols, ep.act)
}

// TestColBiasActMatchesReplacedLoops holds the column sweep, with the identity
// and with ReLU, to the dense op's own store loops it replaced, over inputs
// and biases drawn from the float32 edge cases and random bits.
func TestColBiasActMatchesReplacedLoops(t *testing.T) {
	specials := []float32{0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, math.MaxFloat32, -math.MaxFloat32}
	for _, b := range []uint32{0x7fc00000, 0xffc00123, 0x7f800aaa} { // the last is signalling
		specials = append(specials, math.Float32frombits(b))
	}
	r := frand.New(97)
	draw := func(n int) []float32 {
		x := make([]float32, n)
		for i := range x {
			if r.Intn(2) == 0 {
				x[i] = specials[r.Intn(len(specials))]
			} else {
				x[i] = math.Float32frombits(uint32(r.Uint64()))
			}
		}
		return x
	}
	check := func(x, bias []float32) {
		for _, act := range []vec.Act{vec.ActIdentity, vec.ActReLU} {
			want, got := slices.Clone(x), slices.Clone(x)
			denseStoreLoop(want, bias, act)
			colBiasAct(got, bias, act)
			vectest.NaNClassEqual(t, fmt.Sprintf("act %d, n=%d", act, len(x)), got, want)
		}
	}
	// Every pair of specials once, then random rows of every length.
	var x, bias []float32
	for _, v := range specials {
		for _, b := range specials {
			x, bias = append(x, v), append(bias, b)
		}
	}
	check(x, bias)
	for n := 1; n <= 67; n++ {
		check(draw(n), draw(n))
	}
}

// denseStoreLoop is the frozen dense op's former row epilogue:
// row[j] = act(row[j] + bias[j]), act the identity or ReLU.
func denseStoreLoop(row, bias []float32, act vec.Act) {
	bias = bias[:len(row)]
	if act != vec.ActReLU {
		for j := range row {
			row[j] += bias[j]
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
