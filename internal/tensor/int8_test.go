package tensor

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"heteroswitch/internal/frand"
	"heteroswitch/internal/israce"
	"heteroswitch/internal/vec"
)

// The int8 backend's contract (int8.go): quantized results track the oracle
// within Int8Tol (relative past unit magnitude) with identical per-row
// argmax, are bit-identical across intra-op budgets, dispatch falls back to
// the float kernels when a handle lacks the quantized form, warm dispatches
// allocate nothing, and weight packs happen per Refresh — never per call.

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
// weight-stationary entries, every shape × budget, within Int8Tol with
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
		matMulEp(1, want, a.Data(), w.Data(), m, k, n, false, ep)

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
		MatMulWASlicesPEp(1, wantA, a.Data(), pwA, 0, m, w.Data(), n, false, rb)
		forceBackend(t, BackendInt8)
		for _, par := range packedBudgets {
			for name, arm := range map[string]struct {
				run  func()
				want []float32
			}{
				"wb": {func() { MatMulWBSlicesPEp(par, got, a.Data(), w.Data(), pwB, m, false, ep) }, want},
				"wa": {func() { MatMulWASlicesPEp(par, got, a.Data(), pwA, 0, m, w.Data(), n, false, rb) }, wantA},
			} {
				want := arm.want
				clear(got)
				arm.run()
				for i := 0; i < m; i++ {
					wantRow := want[i*n : (i+1)*n]
					gotRow := got[i*n : (i+1)*n]
					for j := 0; j < n; j++ {
						if !int8TolOK(gotRow[j], wantRow[j]) {
							t.Fatalf("%s %dx%dx%d par=%d: [%d,%d] got %g want %g (tol %g)",
								name, m, k, n, par, i, j, gotRow[j], wantRow[j], Int8Tol)
						}
					}
					// Argmax must survive quantization whenever the decision
					// margin exceeds the tolerance band (random matrices can
					// tie their top-2 arbitrarily closely; the model-fixture
					// suites apply the same margin guard under this tier).
					if n > 1 && rowArgmax(gotRow) != rowArgmax(wantRow) &&
						rowMargin(wantRow) > 2*Int8Tol*rowMagnitude(wantRow) {
						t.Fatalf("%s %dx%dx%d par=%d: row %d argmax %d want %d (margin %g)",
							name, m, k, n, par, i, rowArgmax(gotRow), rowArgmax(wantRow), rowMargin(wantRow))
					}
				}
			}
		}

		// Accumulation: out += product on a pre-seeded output.
		seed := Randn(r, 1, m, n)
		copy(want, seed.Data())
		forceBackend(t, BackendSerial)
		matMulEp(1, want, a.Data(), w.Data(), m, k, n, true, nil)
		forceBackend(t, BackendInt8)
		copy(got, seed.Data())
		MatMulWBSlicesPEp(1, got, a.Data(), w.Data(), pwB, m, true, nil)
		for i := range got {
			if !int8TolOK(got[i], want[i]) {
				t.Fatalf("wb accum %dx%dx%d: [%d] got %g want %g", m, k, n, i, got[i], want[i])
			}
		}
	}
}

// TestInt8BitIdenticalAcrossBudgets: the int8 kernel's integer accumulation
// is exact, so results must match BIT-FOR-BIT at every intra-op budget —
// the property the serve determinism contract stands on.
func TestInt8BitIdenticalAcrossBudgets(t *testing.T) {
	r := frand.New(137)
	forceBackend(t, BackendInt8)
	requireSplit(t, 16, 768, 256)
	for _, sz := range packedShapes {
		m, k, n := sz.m, sz.k, sz.n
		a := Randn(r, 1, m, k)
		w := fanInScaled(r, k, n)
		ep := &testEpilogue{bias: Randn(r, 1, n).Data()}
		rb := &RowBias{Bias: ep.bias[:m], Act: vec.ActReLU}
		pwB := refreshB(w, k, n)
		pwA := refreshA(a, m, k)
		ref := make([]float32, m*n)
		refA := make([]float32, m*n)
		MatMulWBSlicesPEp(1, ref, a.Data(), w.Data(), pwB, m, false, ep)
		MatMulWASlicesPEp(1, refA, a.Data(), pwA, 0, m, w.Data(), n, false, rb)
		got := make([]float32, m*n)
		for _, par := range packedBudgets[1:] {
			clear(got)
			MatMulWBSlicesPEp(par, got, a.Data(), w.Data(), pwB, m, false, ep)
			for i := range got {
				if got[i] != ref[i] {
					t.Fatalf("wb %dx%dx%d par=%d: [%d] %g != par=1 %g", m, k, n, par, i, got[i], ref[i])
				}
			}
			clear(got)
			MatMulWASlicesPEp(par, got, a.Data(), pwA, 0, m, w.Data(), n, false, rb)
			for i := range got {
				if got[i] != refA[i] {
					t.Fatalf("wa %dx%dx%d par=%d: [%d] %g != par=1 %g", m, k, n, par, i, got[i], refA[i])
				}
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
	MatMulWASlicesPEp(1, got[:5*n], w.Data()[:5*k], pw, 0, 5, b.Data(), n, false, nil)
	MatMulWASlicesPEp(1, got[5*n:], w.Data()[5*k:], pw, 5, 5, b.Data(), n, false, nil)
	want := make([]float32, m*n)
	lo := new(PackedWeights)
	lo.RefreshA(w.Data()[:5*k], 5, k)
	hi := new(PackedWeights)
	hi.RefreshA(w.Data()[5*k:], 5, k)
	MatMulWASlicesPEp(1, want[:5*n], w.Data()[:5*k], lo, 0, 5, b.Data(), n, false, nil)
	MatMulWASlicesPEp(1, want[5*n:], w.Data()[5*k:], hi, 0, 5, b.Data(), n, false, nil)
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
		matMulEp(2, want, a.Data(), w.Data(), m, k, n, false, nil)
		clear(got)
		MatMulWBSlicesPEp(2, got, a.Data(), w.Data(), pwB, m, false, nil)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("wb fallback backend=%s: [%d] %g != raw %g", be, i, got[i], want[i])
			}
		}
		clear(got)
		MatMulWASlicesPEp(2, got, a.Data(), pwA, 0, m, w.Data(), n, false, nil)
		// The as-A float fallback always runs the raw kernels on the aliased
		// rows; under int8/packed the raw entry may dispatch packed — both
		// sides must still agree bit-for-bit only when the kernel matches,
		// so compare against the entry's own documented fallback.
		clear(want)
		if usePacked(m, k, n) {
			matMulPackedEp(2, want, a.Data(), w.Data(), m, k, n, false, nil)
		} else {
			matMulEp(2, want, a.Data(), w.Data(), m, k, n, false, nil)
		}
		for i := range got {
			if math.Abs(float64(got[i]-want[i])) > 1e-5 {
				t.Fatalf("wa fallback backend=%s: [%d] %g vs %g", be, i, got[i], want[i])
			}
		}
	}
}

// TestWeightPackCount: Refresh packs exactly the forms the active backend
// needs, and DISPATCH never packs — the packs == installed-versions
// accounting the frozen path's steady-state contract stands on.
func TestWeightPackCount(t *testing.T) {
	r := frand.New(151)
	const m, k, n = 8, 16, 12
	a := Randn(r, 1, m, k)
	w := fanInScaled(r, k, n)
	out := make([]float32, m*n)

	forceBackend(t, BackendInt8)
	before := WeightPackCount()
	pwB := refreshB(w, k, n)
	pwA := refreshA(a, m, k)
	if got := WeightPackCount() - before; got != 2 {
		t.Fatalf("two int8 refreshes packed %d forms, want 2", got)
	}
	before = WeightPackCount()
	for i := 0; i < 5; i++ {
		MatMulWBSlicesPEp(1, out, a.Data(), w.Data(), pwB, m, false, nil)
		MatMulWASlicesPEp(1, out, a.Data(), pwA, 0, m, w.Data(), n, false, nil)
	}
	if got := WeightPackCount() - before; got != 0 {
		t.Fatalf("10 dispatches packed %d forms, want 0", got)
	}

	forceBackend(t, BackendPacked)
	before = WeightPackCount()
	refreshB(w, k, n) // float panels only
	refreshA(a, m, k) // as-A needs no form under packed
	if got := WeightPackCount() - before; got != 1 {
		t.Fatalf("packed refreshes packed %d forms, want 1", got)
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
		{"wb", func() { MatMulWBSlicesPEp(2, out, a.Data(), w.Data(), pwB, m, false, ep) }},
		{"wa", func() { MatMulWASlicesPEp(2, out, a.Data(), pwA, 0, m, w.Data(), n, false, rb) }},
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

// TestBackendParseInt8 extends the flag round-trip to the int8 backend and
// pins the error path's wording (the lane-misconfiguration guard).
func TestBackendParseInt8(t *testing.T) {
	b, err := ParseBackend("int8")
	if err != nil || b != BackendInt8 {
		t.Fatalf("ParseBackend(int8) = %v, %v", b, err)
	}
	if b.String() != "int8" {
		t.Fatalf("String() = %q", b.String())
	}
	if _, err := ParseBackend("int4"); err == nil || !strings.Contains(err.Error(), "int8") {
		t.Fatalf("ParseBackend(int4) err = %v, want mention of valid values", err)
	}
}

// TestInitBackendFromEnv pins the fail-loud contract: a valid value pins
// the backend, an empty value is a no-op, and an UNKNOWN value returns an
// error naming the variable WITHOUT touching the active backend (init turns
// that error into a hard exit, so a CI lane can never silently test the
// wrong backend).
func TestInitBackendFromEnv(t *testing.T) {
	forceBackend(t, BackendAuto)
	if err := initBackendFromEnv("int8"); err != nil {
		t.Fatalf("int8: %v", err)
	}
	if ActiveBackend() != BackendInt8 {
		t.Fatalf("backend = %v after env init", ActiveBackend())
	}
	if err := initBackendFromEnv(""); err != nil || ActiveBackend() != BackendInt8 {
		t.Fatalf("empty value must be a no-op, got err=%v backend=%v", err, ActiveBackend())
	}
	err := initBackendFromEnv("fast")
	if err == nil || !strings.Contains(err.Error(), "HETEROSWITCH_KERNEL_BACKEND") {
		t.Fatalf("unknown value err = %v, want the variable named", err)
	}
	if ActiveBackend() != BackendInt8 {
		t.Fatalf("reject must not change the backend, got %v", ActiveBackend())
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
					MatMulWBSlicesPEp(1, out, a.Data(), w.Data(), pw, sz.m, false, nil)
				}
			})
		}
	}
}
