package fl

import (
	"math"
	"testing"
	"testing/quick"

	"heteroswitch/internal/frand"
)

// Property: staleness-weighted folds are arrival-order-invariant. For a
// fixed set of (staleness version, delta) pairs — i.e. fixed (result,
// discount) inputs — any two arrival permutations aggregate to the same
// weights far below float32 precision (float64 sums make the order's effect
// double-precision rounding only), mirroring the shard-invariance property
// of the synchronous path — for every strategy.
func TestAsyncWeightedFoldOrderInvariance(t *testing.T) {
	policy := PolynomialStaleness{Alpha: 0.6}
	f := func(seed uint16, kRaw uint8) bool {
		strat := allStrategies()[int(seed)%len(allStrategies())]
		r := frand.New(uint64(seed) + 31)
		k := int(kRaw)%16 + 2
		results := randResults(r, k, 9)
		// Fixed (version, delta) pairs: each result carries a staleness drawn
		// once, so its discount is identical in every arrival order.
		discounts := make([]float64, k)
		for i := range discounts {
			discounts[i] = policy.Weight(r.Intn(6))
		}
		global := results[0].Weights.Zero()

		fold := func(order []int) Weights {
			acc := strat.NewAccumulator(global, Default())
			for _, i := range order {
				acc.Fold(results[i], discounts[i])
			}
			return finalize(acc, global)
		}
		identity := make([]int, k)
		for i := range identity {
			identity[i] = i
		}
		a := fold(identity)
		b := fold(r.Perm(k))
		for i := range a.Params {
			if !a.Params[i].AllClose(b.Params[i], 1e-6) {
				return false
			}
		}
		for i := range a.States {
			if !a.States[i].AllClose(b.States[i], 1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: the polynomial policy is a valid discount — Weight(0) = 1,
// positive, and non-increasing in staleness — for arbitrary α ≥ 0.
func TestPolynomialStalenessProperties(t *testing.T) {
	f := func(alphaRaw uint8, sRaw uint8) bool {
		p := PolynomialStaleness{Alpha: float64(alphaRaw) / 32}
		if p.Weight(0) != 1 {
			return false
		}
		s := int(sRaw) % 50
		w0, w1 := p.Weight(s), p.Weight(s+1)
		return w0 > 0 && w1 > 0 && w1 <= w0 && w0 <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a fold scaled by 0 contributes nothing — folding any result at
// scale 0 leaves the aggregate exactly where it was, even when the dropped
// result is diverged (Inf weights would poison the sums as 0·Inf = NaN if
// the fold were merely multiplied through instead of skipped) — and a
// uniform scale cancels out of the aggregate. Both for every strategy.
func TestZeroScaleFoldIsNoOp(t *testing.T) {
	f := func(seed uint16) bool {
		r := frand.New(uint64(seed) + 53)
		results := randResults(r, 4, 5)
		global := randWeightsLike(r, results[0].Weights, 1)
		var kept []ClientResult
		for i := range results {
			if i%2 == 0 { // the zero-scaled folds carry diverged weights
				results[i].Weights.Params[0].Data()[0] = float32(math.Inf(1))
			} else {
				kept = append(kept, results[i])
			}
		}
		for i := range allStrategies() {
			with := allStrategies()[i].NewAccumulator(global, Default())
			for i, res := range results {
				with.Fold(res, float64(i%2)) // every other fold zeroed
			}
			a := finalize(with, global)
			b := streamAggregate(allStrategies()[i], global, kept, 1, 1, Default())
			halved := streamAggregate(allStrategies()[i], global, kept, 1, 0.5, Default())
			for i := range a.Params {
				if a.Params[i].HasNaN() || !a.Params[i].AllClose(b.Params[i], 0) ||
					!halved.Params[i].AllClose(b.Params[i], 1e-6) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
