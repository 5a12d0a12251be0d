package fl

import (
	"math"
	"testing"

	"heteroswitch/internal/frand"
	"heteroswitch/internal/nn"
	"heteroswitch/internal/tensor"
	"heteroswitch/internal/vec"
)

// The validation gate reads its verdict off a lane-ordered sum and falls back
// to the serial chain when the two could disagree. The contract tested here is
// decision-exactness: updateValid ≡ serialValid, the loop it was before it had
// lanes, for every input — above all for bounds within a few ulps of the sum,
// where the two orders really do land on different sides.

// serialSumSq is the gate's defining sum: one float64 chain over every
// element, parameters then states.
func serialSumSq(global, w nn.Weights) float64 {
	var ss float64
	for i, p := range w.Params {
		g := global.Params[i].Data()
		for j, v := range p.Data() {
			d := float64(v) - float64(g[j])
			ss += d * d
		}
	}
	for i, s := range w.States {
		g := global.States[i].Data()
		for j, v := range s.Data() {
			d := float64(v) - float64(g[j])
			ss += d * d
		}
	}
	return ss
}

// serialValid is the gate's definition.
func serialValid(global, w nn.Weights, maxNorm float64) bool {
	if maxNorm <= 0 {
		return true
	}
	ss := serialSumSq(global, w)
	return !math.IsInf(ss, 1) && ss <= maxNorm*maxNorm
}

// gateShapes are multi-tensor weights: parameter and state tensors whose
// lengths put 16-wide blocks, 4-wide blocks and Go tails in every tensor, so
// the lane order's per-tensor partial sums differ from one long chain.
var gateShapes = [][2][]int{
	{{67, 1, 256, 19}, {5, 16}},
	{{3}, nil},
	{{1000, 10}, {33, 33, 1}},
}

// gateWeights draws a global and an update delta-scale away from it.
func gateWeights(r *frand.RNG, shape [2][]int, scale float64) (global, w nn.Weights) {
	draw := func(sizes []int) (g, u []*tensor.Tensor) {
		for _, n := range sizes {
			gt := tensor.Randn(r, 1, n)
			ut := tensor.New(n)
			for j, v := range gt.Data() {
				ut.Data()[j] = v + float32(r.NormFloat64()*scale)
			}
			g, u = append(g, gt), append(u, ut)
		}
		return g, u
	}
	global.Params, w.Params = draw(shape[0])
	global.States, w.States = draw(shape[1])
	return global, w
}

// stepped returns x moved k float64s up (k > 0) or down.
func stepped(x float64, k int) float64 {
	for ; k > 0; k-- {
		x = math.Nextafter(x, math.Inf(1))
	}
	for ; k < 0; k++ {
		x = math.Nextafter(x, 0)
	}
	return x
}

// TestGateDecisionMatchesSerialAtTheBound walks maxNorm through the floats
// around √ss, so maxNorm² lands exactly on the serial sum, one ulp below, one
// ulp above and a little further out (each of the three must occur: counted).
// Every such bound is inside the guard band, so the verdict must come from the
// fallback (counted through lanesDecide), and where the build has lanes the
// run must contain bounds on which the lane-ordered sum alone would have
// decided the other way — the test has teeth only if it does.
func TestGateDecisionMatchesSerialAtTheBound(t *testing.T) {
	r := frand.New(31)
	var at, below, above, fallbacks, flips int
	for trial := 0; trial < 300; trial++ {
		shape := gateShapes[trial%len(gateShapes)]
		global, w := gateWeights(r, shape, math.Pow(10, float64(trial%7-3)))
		serial := serialSumSq(global, w)
		lanes := deltaSumSq(global, w, tensor.SqDistLanes)
		n := int(weightBytes(w) / 4)
		for k := -2; k <= 2; k++ {
			maxNorm := stepped(math.Sqrt(serial), k)
			limit := maxNorm * maxNorm
			switch limit {
			case serial:
				at++
			case stepped(serial, -1):
				below++
			case stepped(serial, 1):
				above++
			}
			if got, want := updateValid(global, w, maxNorm), serialValid(global, w, maxNorm); got != want {
				t.Fatalf("trial %d: maxNorm² = ss%+g: gate says %v, the serial loop %v (serial ss %v, lanes %v)",
					trial, limit-serial, got, want, serial, lanes)
			}
			if _, decided := lanesDecide(lanes, limit, n); decided {
				t.Fatalf("trial %d: a bound %g from the sum %v (n=%d) was decided without the serial chain", trial, limit-serial, serial, n)
			}
			fallbacks++
			if (lanes <= limit) != (serial <= limit) {
				flips++
			}
		}
	}
	if at == 0 || below == 0 || above == 0 {
		t.Fatalf("bounds exactly at / one ulp below / one ulp above the sum: %d / %d / %d, want all > 0", at, below, above)
	}
	if vec.Live && flips == 0 {
		t.Fatal("no bound separated the lane-ordered sum from the serial one: the fixture does not exercise the guard")
	}
	t.Logf("%d bounds inside the band, all sent to the serial chain; %d at, %d below, %d above the sum; %d would have flipped on the lane sum", fallbacks, at, below, above, flips)
}

// TestGateDecisionMatchesSerial covers the rest of the input space: bounds
// far from the sum (decided on the lane sum: counted), the disabled gate, a
// tiny bound whose square underflows, +Inf, a bound whose square overflows,
// and a NaN, +Inf or −Inf at every position of a tensor — each lane of the
// 16-wide and 4-wide blocks and the tail — in either a parameter or a state.
func TestGateDecisionMatchesSerial(t *testing.T) {
	r := frand.New(32)
	bounds := []float64{0, 1e-200, 1e-30, 0.5, 3, 100, 1e30, 1.4e154, 1e200, math.MaxFloat64, math.Inf(1)}
	check := func(what string, global, w nn.Weights) (decided int) {
		t.Helper()
		n, lanes := int(weightBytes(w)/4), deltaSumSq(global, w, tensor.SqDistLanes)
		for _, maxNorm := range bounds {
			if got, want := updateValid(global, w, maxNorm), serialValid(global, w, maxNorm); got != want {
				t.Fatalf("%s: maxNorm %v: gate says %v, the serial loop %v", what, maxNorm, got, want)
			}
			if _, ok := lanesDecide(lanes, maxNorm*maxNorm, n); ok {
				decided++
			}
		}
		return decided
	}
	for i, shape := range gateShapes {
		for _, scale := range []float64{0, 1e-3, 1, 1e4} {
			global, w := gateWeights(r, shape, scale)
			if decided := check("finite update", global, w); decided < len(bounds)-3 {
				t.Fatalf("shape %d scale %g: only %d of %d far bounds were decided on the lane sum", i, scale, decided, len(bounds))
			}
		}
	}
	global, w := gateWeights(r, gateShapes[0], 0.01)
	for _, ts := range [][]*tensor.Tensor{w.Params, w.States} {
		for ti, tns := range ts {
			d := tns.Data()
			for pos := range d {
				for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
					keep := d[pos]
					d[pos] = bad
					check("poisoned update", global, w)
					if updateValid(global, w, math.Inf(1)) {
						t.Fatalf("tensor %d element %d = %v passed the +Inf gate", ti, pos, bad)
					}
					d[pos] = keep
				}
			}
		}
	}
}

// TestLanesDecideStaysInsideItsProof: outside the range its band is proven
// for — more elements than gateLaneMaxN, a bound below 0x1p-900 — a
// finite sum is never decided, while the two verdicts that need no band (a
// non-finite sum, a +Inf bound) stand.
func TestLanesDecideStaysInsideItsProof(t *testing.T) {
	for _, tc := range []struct {
		ss, limit      float64
		n              int
		valid, decided bool
	}{
		{1, 4, 100, true, true},
		{9, 4, 100, false, true},
		{1, 4, 1<<30 + 1, false, false},
		{0, 0, 100, false, false},
		{1e-300, 0x1p-901, 100, false, false},
		{1, 0x1p-900, 100, false, true},
		{math.Inf(1), math.Inf(1), 100, false, true},
		{math.NaN(), 4, 100, false, true},
		{math.NaN(), 0, 1<<30 + 1, false, true},
		{math.MaxFloat64, math.Inf(1), 1<<30 + 1, true, true},
		{1e308, math.MaxFloat64, 1 << 20, true, true},
		{math.MaxFloat64, math.MaxFloat64, 1 << 20, false, false}, // limit+band overflows: undecided, not wrong
	} {
		if valid, decided := lanesDecide(tc.ss, tc.limit, tc.n); decided != tc.decided || (decided && valid != tc.valid) {
			t.Errorf("lanesDecide(%v, %v, %d) = %v, %v; want %v, %v", tc.ss, tc.limit, tc.n, valid, decided, tc.valid, tc.decided)
		}
	}
}

// FuzzGateMatchesSerial: updateValid ≡ serialValid on random weights with a
// bound of any bit pattern, or one stepped a few floats off √ss, and
// optionally one poisoned element.
func FuzzGateMatchesSerial(f *testing.F) {
	f.Add(uint64(1), math.Float64bits(100), int8(0), uint16(0), uint8(0))
	f.Add(uint64(2), math.Float64bits(math.Inf(1)), int8(0), uint16(70), uint8(2))
	f.Add(uint64(3), uint64(0), int8(8), uint16(0), uint8(0))
	f.Add(uint64(4), uint64(0), int8(-16), uint16(300), uint8(0))
	f.Add(uint64(6), math.Float64bits(3), int8(0), uint16(300), uint8(1))
	f.Add(uint64(5), math.Float64bits(1e200), int8(0), uint16(5), uint8(3))
	f.Fuzz(func(t *testing.T, seed, normBits uint64, step int8, pos uint16, poison uint8) {
		r := frand.New(seed)
		global, w := gateWeights(r, gateShapes[seed%uint64(len(gateShapes))], math.Pow(10, float64(seed%9)-4))
		if poison%4 != 0 {
			flat := w.Params[int(pos)%len(w.Params)].Data()
			flat[int(pos)%len(flat)] = []float32{0, float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}[poison%4]
		}
		maxNorm := math.Abs(math.Float64frombits(normBits))
		if step != 0 {
			maxNorm = stepped(math.Sqrt(serialSumSq(global, w)), int(step)/8)
		}
		if math.IsNaN(maxNorm) {
			t.Skip("Config.Validate rejects a NaN bound")
		}
		if got, want := updateValid(global, w, maxNorm), serialValid(global, w, maxNorm); got != want {
			t.Fatalf("maxNorm %v: gate says %v, the serial loop %v", maxNorm, got, want)
		}
	})
}
