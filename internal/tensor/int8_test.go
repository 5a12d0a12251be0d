package tensor

import (
	"fmt"
	"math"
	"testing"

	"heteroswitch/internal/frand"
	"heteroswitch/internal/israce"
	"heteroswitch/internal/vec"
)

// The int8 backend's contract (int8.go): quantized results track the oracle
// within Int8Tol (relative past unit magnitude) with identical per-row
// argmax, dispatch falls back to the float kernels when a handle lacks the
// quantized form, warm dispatches allocate nothing, and weight packs happen
// per Refresh — never per call.

// int8TolOK is packedTolOK with the int8 tier's documented bound.
func int8TolOK(got, want float32) bool {
	w := math.Abs(float64(want))
	if w < 1 {
		w = 1
	}
	return math.Abs(float64(got)-float64(want)) <= Int8Tol*w
}

// rowMargin is the gap between a row's top two values (0 for single-column
// rows).
func rowMargin(row []float32) float32 {
	best, second := float32(math.Inf(-1)), float32(math.Inf(-1))
	for _, v := range row {
		if v > best {
			best, second = v, best
		} else if v > second {
			second = v
		}
	}
	if math.IsInf(float64(second), -1) {
		return 0
	}
	return best - second
}

// rowMagnitude is the unit-floored |max| the relative tolerance scales by.
func rowMagnitude(row []float32) float32 {
	m := float32(1)
	for _, v := range row {
		if a := abs32(v); a > m {
			m = a
		}
	}
	return m
}

// refreshB builds a weights-as-B handle with the forms of the CURRENT
// backend (callers force the backend first).
func refreshB(w *Tensor, k, n int) *PackedWeights {
	pw := new(PackedWeights)
	pw.RefreshB(w.Data(), k, n)
	return pw
}

func refreshA(w *Tensor, m, k int) *PackedWeights {
	pw := new(PackedWeights)
	pw.RefreshA(w.Data(), m, k)
	return pw
}

// TestInt8MatchesOracle: forced int8 vs forced serial on both
// weight-stationary entries, every shape, within Int8Tol with
// identical per-row argmax — the documented quantized-tier contract, with
// and without an epilogue and under accumulation.
func TestInt8MatchesOracle(t *testing.T) {
	r := frand.New(131)
	for _, sz := range packedShapes {
		m, k, n := sz.m, sz.k, sz.n
		a := Randn(r, 1, m, k)
		w := fanInScaled(r, k, n)
		want, wantA := make([]float32, m*n), make([]float32, m*n)
		got := make([]float32, m*n)
		ep := &testEpilogue{bias: Randn(r, 1, n).Data()}
		rb := &RowBias{Bias: ep.bias[:m], Act: vec.ActHardSwish} // the conv orientation's epilogue

		forceBackend(t, BackendSerial)
		matMulEp(want, a.Data(), w.Data(), m, k, n, false, ep)

		forceBackend(t, BackendInt8)
		pwB := refreshB(w, k, n)
		if !pwB.HasInt8() {
			t.Fatalf("%dx%dx%d: RefreshB under int8 backend left no quantized form", m, k, n)
		}
		// The conv orientation computes the transposed product; reusing the
		// same operands as A[m,k] @ B[k,n] just relabels which side is the
		// weight.
		pwA := refreshA(a, m, k)
		forceBackend(t, BackendSerial)
		MatMulWASlicesEp(wantA, a.Data(), pwA, 0, m, w.Data(), n, false, rb)
		forceBackend(t, BackendInt8)
		for name, arm := range map[string]struct {
			run  func()
			want []float32
		}{
			"wb": {func() { MatMulWBSlicesEp(got, a.Data(), w.Data(), pwB, m, false, ep) }, want},
			"wa": {func() { MatMulWASlicesEp(got, a.Data(), pwA, 0, m, w.Data(), n, false, rb) }, wantA},
		} {
			want := arm.want
			clear(got)
			arm.run()
			for i := 0; i < m; i++ {
				wantRow := want[i*n : (i+1)*n]
				gotRow := got[i*n : (i+1)*n]
				for j := 0; j < n; j++ {
					if !int8TolOK(gotRow[j], wantRow[j]) {
						t.Fatalf("%s %dx%dx%d: [%d,%d] got %g want %g (tol %g)",
							name, m, k, n, i, j, gotRow[j], wantRow[j], Int8Tol)
					}
				}
				// Argmax must survive quantization whenever the decision
				// margin exceeds the tolerance band (random matrices can
				// tie their top-2 arbitrarily closely; the model-fixture
				// suites apply the same margin guard under this tier).
				if n > 1 && rowArgmax(gotRow) != rowArgmax(wantRow) &&
					rowMargin(wantRow) > 2*Int8Tol*rowMagnitude(wantRow) {
					t.Fatalf("%s %dx%dx%d: row %d argmax %d want %d (margin %g)",
						name, m, k, n, i, rowArgmax(gotRow), rowArgmax(wantRow), rowMargin(wantRow))
				}
			}
		}

		// Accumulation: out += product on a pre-seeded output.
		seed := Randn(r, 1, m, n)
		copy(want, seed.Data())
		forceBackend(t, BackendSerial)
		matMulEp(want, a.Data(), w.Data(), m, k, n, true, nil)
		forceBackend(t, BackendInt8)
		copy(got, seed.Data())
		MatMulWBSlicesEp(got, a.Data(), w.Data(), pwB, m, true, nil)
		for i := range got {
			if !int8TolOK(got[i], want[i]) {
				t.Fatalf("wb accum %dx%dx%d: [%d] got %g want %g", m, k, n, i, got[i], want[i])
			}
		}
	}
}

// TestInt8GroupRowOffset: the weights-as-A entry's rowOff/rows window must
// select exactly the group's rows — computing a 2-group product group by
// group against one handle matches per-group handles.
func TestInt8GroupRowOffset(t *testing.T) {
	r := frand.New(139)
	forceBackend(t, BackendInt8)
	const m, k, n = 10, 12, 9 // two groups of 5 rows
	w := Randn(r, 1, m, k)
	b := Randn(r, 1, k, n)
	pw := refreshA(w, m, k)
	got := make([]float32, m*n)
	MatMulWASlicesEp(got[:5*n], w.Data()[:5*k], pw, 0, 5, b.Data(), n, false, nil)
	MatMulWASlicesEp(got[5*n:], w.Data()[5*k:], pw, 5, 5, b.Data(), n, false, nil)
	want := make([]float32, m*n)
	lo := new(PackedWeights)
	lo.RefreshA(w.Data()[:5*k], 5, k)
	hi := new(PackedWeights)
	hi.RefreshA(w.Data()[5*k:], 5, k)
	MatMulWASlicesEp(want[:5*n], w.Data()[:5*k], lo, 0, 5, b.Data(), n, false, nil)
	MatMulWASlicesEp(want[5*n:], w.Data()[5*k:], hi, 0, 5, b.Data(), n, false, nil)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("[%d] windowed %g != per-group %g", i, got[i], want[i])
		}
	}
}

// TestWeightStationaryFallbacks: a handle refreshed under one backend must
// stay CORRECT under every other — missing forms fall back to the float
// kernels on the aliased weights, bit-identical to the raw-slice entries.
func TestWeightStationaryFallbacks(t *testing.T) {
	r := frand.New(149)
	const m, k, n = 6, 20, 11
	a := Randn(r, 1, m, k)
	w := fanInScaled(r, k, n)
	forceBackend(t, BackendSerial) // refresh builds no forms at all
	pwB := refreshB(w, k, n)
	pwA := refreshA(a, m, k)
	if pwB.HasFloat() || pwB.HasInt8() || pwA.HasInt8() {
		t.Fatal("serial refresh built forms it can never use")
	}
	want := make([]float32, m*n)
	got := make([]float32, m*n)
	for _, be := range []Backend{BackendSerial, BackendPacked, BackendAuto, BackendInt8} {
		forceBackend(t, be)
		clear(want)
		matMulEp(want, a.Data(), w.Data(), m, k, n, false, nil)
		clear(got)
		MatMulWBSlicesEp(got, a.Data(), w.Data(), pwB, m, false, nil)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("wb fallback backend=%s: [%d] %g != raw %g", be, i, got[i], want[i])
			}
		}
		clear(got)
		MatMulWASlicesEp(got, a.Data(), pwA, 0, m, w.Data(), n, false, nil)
		// The as-A float fallback always runs the raw kernels on the aliased
		// rows; under int8/packed the raw entry may dispatch packed — both
		// sides must still agree bit-for-bit only when the kernel matches,
		// so compare against the entry's own documented fallback.
		clear(want)
		if usePacked(m, k, n) {
			matMulPackedEp(want, a.Data(), w.Data(), m, k, n, false, nil)
		} else {
			matMulEp(want, a.Data(), w.Data(), m, k, n, false, nil)
		}
		for i := range got {
			if math.Abs(float64(got[i]-want[i])) > 1e-5 {
				t.Fatalf("wa fallback backend=%s: [%d] %g vs %g", be, i, got[i], want[i])
			}
		}
	}
}

// TestWeightPackCount: Refresh builds exactly the forms the active backend
// consumes — int8 the quantized form of both orientations, packed the float
// panels of weights-as-B only, auto and serial none — and a dispatch builds
// none.
func TestWeightPackCount(t *testing.T) {
	r := frand.New(151)
	const m, k, n = 8, 16, 12
	a := Randn(r, 1, m, k)
	w := fanInScaled(r, k, n)
	out := make([]float32, m*n)
	type forms struct{ float, int8 bool }
	have := func(pw *PackedWeights) forms { return forms{pw.HasFloat(), pw.HasInt8()} }
	for _, tc := range []struct {
		be       Backend
		asB, asA forms
	}{
		{BackendInt8, forms{int8: true}, forms{int8: true}},
		{BackendPacked, forms{float: true}, forms{}},
		{BackendSerial, forms{}, forms{}},
		{BackendAuto, forms{}, forms{}},
	} {
		forceBackend(t, tc.be)
		pwB := refreshB(w, k, n)
		pwA := refreshA(a, m, k)
		for i := 0; i < 5; i++ {
			MatMulWBSlicesEp(out, a.Data(), w.Data(), pwB, m, false, nil)
			MatMulWASlicesEp(out, a.Data(), pwA, 0, m, w.Data(), n, false, nil)
		}
		if got := have(pwB); got != tc.asB {
			t.Errorf("%v: weights-as-B hold %+v, want %+v", tc.be, got, tc.asB)
		}
		if got := have(pwA); got != tc.asA {
			t.Errorf("%v: weights-as-A hold %+v, want %+v", tc.be, got, tc.asA)
		}
	}
}

// TestInt8AllocFree: a warm weight-stationary dispatch — activation
// quantization buffers included — performs zero heap allocations on both
// orientations.
func TestInt8AllocFree(t *testing.T) {
	if israce.Enabled {
		t.Skip("sync.Pool drops items randomly under -race; alloc counts are nondeterministic")
	}
	r := frand.New(157)
	const m, k, n = 16, 48, 32
	a := Randn(r, 1, m, k)
	w := fanInScaled(r, k, n)
	out := make([]float32, m*n)
	ep := &testEpilogue{bias: Randn(r, 1, n).Data()}
	rb := &RowBias{Bias: ep.bias[:m], Act: vec.ActHardSwish}
	forceBackend(t, BackendInt8)
	pwB := refreshB(w, k, n)
	pwA := refreshA(a, m, k)
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"wb", func() { MatMulWBSlicesEp(out, a.Data(), w.Data(), pwB, m, false, ep) }},
		{"wa", func() { MatMulWASlicesEp(out, a.Data(), pwA, 0, m, w.Data(), n, false, rb) }},
	} {
		tc.run() // warm the pools
		if allocs := testing.AllocsPerRun(10, tc.run); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, allocs)
		}
	}
}

// TestQuantVal pins the rounding contract: branchless round-half-up in the
// biased domain (v·inv is bounded to ±127 by construction — inv always
// derives from the maxabs of the data being quantized, so no clamp exists),
// zero-scale channels quantize to exact zero.
// quantVal is quantBiased shifted back to the signed domain.
func quantVal(v, inv float32) int8 {
	return int8(int32(quantBiased(v, inv)) - int8Bias)
}

func TestQuantVal(t *testing.T) {
	for _, tc := range []struct {
		v, inv float32
		want   int8
	}{
		{0.5, 1, 1}, {-0.5, 1, 0}, {0.49, 1, 0}, {-0.51, 1, -1},
		{126.6, 1, 127}, {-126.6, 1, -127}, {127, 1, 127}, {-127, 1, -127},
		{3.7, 0, 0}, // all-zero channel: inv==0 maps everything to 0
		{1.5, 1, 2}, {-1.5, 1, -1},
	} {
		if got := quantVal(tc.v, tc.inv); got != tc.want {
			t.Errorf("quantVal(%g, %g) = %d, want %d", tc.v, tc.inv, got, tc.want)
		}
	}
	if quantInv(0) != 0 {
		t.Error("quantInv(0) != 0")
	}
	// A maxabs at the extreme ends must keep v·inv in the clamp-free domain:
	// the top of the range quantizes to exactly ±127.
	for _, ma := range []float32{1e-30, 1, 3e38} {
		if got := quantVal(ma, quantInv(ma)); got != 127 {
			t.Errorf("quantVal(maxabs=%g) = %d, want 127", ma, got)
		}
		if got := quantVal(-ma, quantInv(ma)); got != -127 {
			t.Errorf("quantVal(-maxabs=%g) = %d, want -127", ma, got)
		}
	}
	// Denormal maxabs: 127/ma overflows float32, so the channel flushes to
	// zero-quantization instead of feeding ±Inf into the rounding.
	if quantInv(1e-44) != 0 {
		t.Error("quantInv(denormal) should flush to 0")
	}
}

// BenchmarkMatMulInt8 A/Bs the integer kernel against the float backends on
// the weight-stationary entry (weights pre-packed for packed/int8, so the
// comparison isolates kernel speed the way the frozen path sees it).
func BenchmarkMatMulInt8(b *testing.B) {
	r := frand.New(163)
	for _, sz := range []struct{ m, k, n int }{
		{16, 768, 256}, // MLP dense eval batch
		{48, 48, 256},  // ConvNet expand pointwise
		{64, 64, 64},
		{128, 128, 128},
		{256, 256, 256},
	} {
		a := Randn(r, 1, sz.m, sz.k)
		w := fanInScaled(r, sz.k, sz.n)
		out := make([]float32, sz.m*sz.n)
		for _, be := range []Backend{BackendSerial, BackendPacked, BackendInt8} {
			b.Run(fmt.Sprintf("%dx%dx%d/backend=%s", sz.m, sz.k, sz.n, be), func(b *testing.B) {
				prev := ActiveBackend()
				SetBackend(be)
				defer SetBackend(prev)
				pw := new(PackedWeights)
				pw.RefreshB(w.Data(), sz.k, sz.n)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					MatMulWBSlicesEp(out, a.Data(), w.Data(), pw, sz.m, false, nil)
				}
			})
		}
	}
}
