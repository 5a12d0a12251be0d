package fl

import (
	"heteroswitch/internal/nn"
	"heteroswitch/internal/tensor"
)

// Accumulator folds client results into running aggregation state — the one
// aggregation path. The server core keeps one, and replica 0 folds each
// admitted result into it in window order as soon as it and every earlier
// step are trained, so peak weight memory is O(replicas), not O(K). An accumulator lives as long as its
// server: the window executor Resets it at the start of every window.
type Accumulator interface {
	// Fold adds one admitted client result at the given scale, which
	// multiplies the result's native fold weight (its sample count, for the
	// FedAvg family): 1 under the barrier driver, the staleness discount
	// under the event loop. A scale of 0 contributes nothing. The caller
	// reuses the result's weight buffers immediately afterwards, so
	// implementations must not retain them.
	Fold(result ClientResult, scale float64)
	// FinalizeInto writes the window's new global weights into dst, which is
	// shaped like the global weights and distinct from them; every element
	// is overwritten. It returns false — leaving dst untouched — when the
	// window produced no update (nothing was folded), in which case the
	// caller keeps the old global. Called once per window, after its last
	// fold.
	FinalizeInto(dst nn.Weights) bool
	// Reset rewinds the accumulator for a new window against the given
	// global weights, leaving it exactly as NewAccumulator(global, cfg) would
	// have with the cfg it was built with.
	Reset(global nn.Weights)
}

// weightedSum is the float64 core every accumulator is built on: Σ w_k·t_k
// over a fixed list of tensors, and Σ w_k. The terms are added in window
// order, whatever replica trained them, and the sums are rounded to float32
// exactly once, at finalize, so runs with a fixed config are
// bit-reproducible at every worker count.
type weightedSum struct {
	sums  [][]float64
	total float64
}

func newWeightedSum(like []*tensor.Tensor) weightedSum {
	s := weightedSum{sums: make([][]float64, len(like))}
	for i, t := range like {
		s.sums[i] = make([]float64, t.Size())
	}
	return s
}

// mustMatch panics unless ts has the sums' shape. Failing loudly matters: a
// short result would otherwise grow total without touching the sums,
// silently shrinking the aggregate toward zero.
func (s *weightedSum) mustMatch(ts []*tensor.Tensor) {
	if len(ts) != len(s.sums) {
		panic("fl: weight count incompatible with accumulator")
	}
	for i, t := range ts {
		if t.Size() != len(s.sums[i]) {
			panic("fl: weight size incompatible with accumulator")
		}
	}
}

// add folds w·ts into the sums.
func (s *weightedSum) add(ts []*tensor.Tensor, w float64) {
	s.mustMatch(ts)
	for i, t := range ts {
		tensor.FoldScaled(s.sums[i], t.Data(), w)
	}
	s.total += w
}

func (s *weightedSum) reset() {
	for _, sum := range s.sums {
		clear(sum)
	}
	s.total = 0
}

// meanInto writes sums/total into dst, the single float32 rounding.
func (s *weightedSum) meanInto(dst []*tensor.Tensor) {
	s.mustMatch(dst)
	inv := 1.0 / s.total
	for i, sum := range s.sums {
		d := dst[i].Data()[:len(sum)]
		for j, v := range sum {
			d[j] = float32(v * inv)
		}
	}
}

// fedAvgAccumulator streams the sample-count-weighted average of parameters
// and states.
type fedAvgAccumulator struct {
	params, states weightedSum // Σ scale·n_k · w_k
}

func newFedAvgAccumulator(global nn.Weights) fedAvgAccumulator {
	return fedAvgAccumulator{
		params: newWeightedSum(global.Params),
		states: newWeightedSum(global.States),
	}
}

// NewAccumulator implements Strategy.
func (FedAvg) NewAccumulator(global nn.Weights, cfg Config) Accumulator {
	a := newFedAvgAccumulator(global)
	return &a
}

// NewAccumulator implements Strategy: FedProx aggregates exactly like FedAvg
// (the proximal term only changes the local objective).
func (p *FedProx) NewAccumulator(global nn.Weights, cfg Config) Accumulator {
	return FedAvg{}.NewAccumulator(global, cfg)
}

// Fold implements Accumulator: the fold weight is scale·n_k, so the async
// server's staleness discount composes with FedAvg's sample weighting.
func (a *fedAvgAccumulator) Fold(r ClientResult, scale float64) {
	// A zero scale contributes nothing: skip the model-sized fold entirely,
	// also keeping 0·±Inf/0·NaN from a diverged (and deliberately zeroed-out)
	// result off the sums.
	if scale == 0 {
		return
	}
	n := scale * float64(r.NumSamples)
	a.params.add(r.Weights.Params, n)
	a.states.add(r.Weights.States, n)
}

// FinalizeInto implements Accumulator.
func (a *fedAvgAccumulator) FinalizeInto(dst nn.Weights) bool {
	if a.params.total == 0 {
		return false
	}
	a.params.meanInto(dst.Params)
	a.states.meanInto(dst.States)
	return true
}

// Reset implements Accumulator: the float64 sum buffers are kept and zeroed.
func (a *fedAvgAccumulator) Reset(nn.Weights) {
	a.params.reset()
	a.states.reset()
}
