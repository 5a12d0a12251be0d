package fl

import (
	"slices"

	"heteroswitch/internal/nn"
	"heteroswitch/internal/tensor"
)

// Accumulator folds client results into running aggregation state — the one
// aggregation path. The server core keeps one per training replica and the
// client step folds each admitted result into its replica's accumulator as
// it finishes, so peak weight memory is O(replicas), not O(K); a driver with
// several replicas merges them tree-style before finalizing. Accumulators
// live as long as their server: Reset rewinds them between rounds.
type Accumulator interface {
	// Fold adds one admitted client result at the given scale, which
	// multiplies the result's native fold weight (its sample count, for the
	// FedAvg family): 1 under the barrier driver, the staleness discount
	// under the event loop. A scale of 0 contributes nothing. The caller
	// reuses the result's weight buffers immediately afterwards, so
	// implementations must not retain them.
	Fold(result ClientResult, scale float64)
	// Merge absorbs another accumulator produced by the same strategy for
	// the same round.
	Merge(other Accumulator)
	// FinalizeInto writes the round's new global weights into dst, which is
	// shaped like the global weights and distinct from them; every element
	// is overwritten. It returns false — leaving dst untouched — when the
	// round produced no update (nothing was folded), in which case the
	// caller keeps the old global. Called once per round, on the root
	// accumulator after all shards are merged.
	FinalizeInto(dst nn.Weights) bool
	// Reset rewinds the accumulator for a new round against the given global
	// weights, leaving it exactly as NewAccumulator(global, cfg) would have.
	Reset(global nn.Weights, cfg Config)
}

// weightedSum is the float64 core every accumulator is built on: Σ w_k·t_k
// over a fixed list of tensors, and Σ w_k. Sums are rounded to float32
// exactly once, at finalize, so the shard-merge order (which depends on the
// worker count) perturbs the result by at most double-precision rounding —
// in practice below float32 resolution. Combined with the server's static
// client→worker partition, runs with a fixed config are bit-reproducible.
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

func (s *weightedSum) merge(o *weightedSum) {
	for i, src := range o.sums {
		dst := s.sums[i][:len(src)]
		for j, v := range src {
			dst[j] += v
		}
	}
	s.total += o.total
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

// Merge implements Accumulator.
func (a *fedAvgAccumulator) Merge(other Accumulator) {
	b := other.(*fedAvgAccumulator)
	a.params.merge(&b.params)
	a.states.merge(&b.states)
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
func (a *fedAvgAccumulator) Reset(nn.Weights, Config) {
	a.params.reset()
	a.states.reset()
}

// mergeShards folds accs[1:] into accs[0] tree-style (pairwise, doubling
// stride) and returns the root, ready to finalize. Tree order keeps the
// merge O(log W) deep; the accumulators' float64 sums make the order
// numerically immaterial.
func mergeShards(accs []Accumulator) Accumulator {
	for stride := 1; stride < len(accs); stride *= 2 {
		for i := 0; i+stride < len(accs); i += 2 * stride {
			accs[i].Merge(accs[i+stride])
		}
	}
	return accs[0]
}

// shardPlan is the server-owned scratch of the round's client→worker
// partition, reused every round so planning allocates nothing.
type shardPlan struct {
	order  []int   // sampling indices, largest client first
	owner  []int   // sampling index → shard
	load   []int   // samples assigned per shard
	shards [][]int // per shard: its sampling indices, ascending
}

// split partitions the sampled clients over the workers, balanced on sample
// count: longest-first greedy (each client, largest first, goes to the
// least-loaded shard; ties break to the lower sampling index and the lower
// shard), which bounds every shard's load by the mean plus one client. Local
// training time is proportional to samples, so this balances what a dynamic
// job queue would — but as a pure function of the sampled list, so shard
// contents, and with them the fold order, never depend on scheduling. Each
// shard lists its sampling indices in ascending order; with one worker that
// is the identity.
func (p *shardPlan) split(sampled []*Client, workers int) [][]int {
	p.order, p.owner, p.load = p.order[:0], p.owner[:0], p.load[:0]
	for i := range sampled {
		p.order = append(p.order, i)
		p.owner = append(p.owner, 0)
	}
	for len(p.shards) < workers {
		p.shards = append(p.shards, nil)
	}
	shards := p.shards[:workers]
	for w := range shards {
		shards[w] = shards[w][:0]
		p.load = append(p.load, 0)
	}
	slices.SortFunc(p.order, func(a, b int) int {
		if d := sampled[b].Data.Len() - sampled[a].Data.Len(); d != 0 {
			return d
		}
		return a - b
	})
	for _, i := range p.order {
		best := 0
		for w, l := range p.load {
			if l < p.load[best] {
				best = w
			}
		}
		p.load[best] += sampled[i].Data.Len()
		p.owner[i] = best
	}
	for i, w := range p.owner {
		shards[w] = append(shards[w], i)
	}
	return shards
}
