package fl

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"heteroswitch/internal/faults"
	"heteroswitch/internal/frand"
	"heteroswitch/internal/nn"
	"heteroswitch/internal/simclock"
	"heteroswitch/internal/tensor"
)

// randResults builds k client results with randomized weights (params and a
// state tensor, exercising both fold paths) and sample counts in [1, 32].
func randResults(r *frand.RNG, k, dim int) []ClientResult {
	out := make([]ClientResult, k)
	for i := range out {
		out[i] = ClientResult{
			ClientID:   i,
			NumSamples: r.Intn(32) + 1,
			Weights: nn.Weights{
				Params: []*tensor.Tensor{tensor.Randn(r, 1, dim), tensor.Randn(r, 1, 3)},
				States: []*tensor.Tensor{tensor.Randn(r, 1, 2)},
			},
			TrainLoss: r.Float64(),
			InitLoss:  r.Float64() + 0.1,
		}
	}
	return out
}

// finalize returns the accumulator's new global weights, or the unchanged
// global when the round produced no update.
func finalize(acc Accumulator, global nn.Weights) nn.Weights {
	dst := global.Zero()
	if !acc.FinalizeInto(dst) {
		return global
	}
	return dst
}

// sharesStorage reports whether two weight sets are backed by the same
// tensors.
func sharesStorage(a, b nn.Weights) bool {
	if len(a.Params) > 0 && len(b.Params) > 0 {
		return a.Params[0] == b.Params[0]
	}
	return len(a.States) > 0 && len(b.States) > 0 && a.States[0] == b.States[0]
}

// streamAggregate folds results at the given scale through one accumulator
// in order — the server's aggregation path, minus the replicas.
func streamAggregate(s Strategy, global nn.Weights, results []ClientResult, scale float64, cfg Config) nn.Weights {
	acc := s.NewAccumulator(global, cfg)
	for _, r := range results {
		acc.Fold(r, scale)
	}
	return finalize(acc, global)
}

// The closed-form aggregation rules, kept as the accumulators' oracle. They
// are the pre-streaming implementations verbatim: every result materialized,
// float32 arithmetic in client order.

// weightedAverage returns the sample-count-weighted average of client
// weights (params and states) — the FedAvg aggregation rule.
func weightedAverage(results []ClientResult) nn.Weights {
	var total float64
	for _, r := range results {
		total += float64(r.NumSamples)
	}
	avg := results[0].Weights.Zero()
	for _, r := range results {
		avg.Axpy(float32(float64(r.NumSamples)/total), r.Weights)
	}
	return avg
}

// qFFLReference is the q-FFL update:
//
//	Δ_k = (w_global - w_k)/η,  F_k = L_k + ε
//	w ← w_global - Σ_k F_k^q Δ_k / Σ_k (q F_k^{q-1} ||Δ_k||² + F_k^q/η)
func qFFLReference(q float64, global nn.Weights, results []ClientResult, cfg Config) nn.Weights {
	const eps = 1e-10
	invLR := 1.0 / cfg.LR
	num := global.Zero()
	var denom float64
	for _, r := range results {
		delta := global.Sub(r.Weights) // w_global - w_k
		delta.Scale(float32(invLR))
		f := r.InitLoss + eps
		fq := math.Pow(f, q)
		var normSq float64
		for _, p := range delta.Params {
			normSq += l2NormSq(p)
		}
		num.Axpy(float32(fq), delta)
		denom += q*math.Pow(f, q-1)*normSq + fq*invLR
	}
	out := global.Clone()
	out.Axpy(float32(-1.0/denom), num)
	// States (BN statistics) are not part of the q-FFL objective; average
	// them as FedAvg does so inference stays calibrated.
	avg := weightedAverage(results)
	for i := range out.States {
		out.States[i].CopyFrom(avg.States[i])
	}
	return out
}

// scaffoldVariateReference advances the server control variate:
// c += (1/N) Σ Δc_k over the round's clients.
func scaffoldVariateReference(c nn.Weights, deltas []nn.Weights, n int) nn.Weights {
	out := c.Clone()
	scale := float32(1.0 / float64(n))
	for _, d := range deltas {
		for i := range out.Params {
			out.Params[i].Axpy(scale, d.Params[i])
		}
	}
	return out
}

func randWeightsLike(r *frand.RNG, like nn.Weights, std float64) nn.Weights {
	w := like.Zero()
	for _, ts := range [][]*tensor.Tensor{w.Params, w.States} {
		for _, t := range ts {
			t.CopyFrom(tensor.Randn(r, std, t.Shape()...))
		}
	}
	return w
}

func requireWeightsClose(t *testing.T, what string, got, want nn.Weights, tol float64) {
	t.Helper()
	for i := range want.Params {
		if got.Params[i].HasNaN() || !got.Params[i].AllClose(want.Params[i], tol) {
			t.Fatalf("%s: param %d off the reference", what, i)
		}
	}
	for i := range want.States {
		if got.States[i].HasNaN() || !got.States[i].AllClose(want.States[i], tol) {
			t.Fatalf("%s: state %d off the reference", what, i)
		}
	}
}

// The aggregation oracle: for every strategy in this package, eight random
// rounds, and a full, a discounted, and a zero fold scale, the accumulator
// path equals the closed-form rule. A uniform scale
// cancels in every weight rule; SCAFFOLD's control-variate step scales with
// it; scale 0 is "nothing folded" — global kept, no strategy state touched.
// (HeteroSwitch's row lives in internal/core, which this package cannot
// import.)
func TestAccumulatorsMatchClosedForm(t *testing.T) {
	cfg := Default()
	const q, totalClients = 0.7, 40
	average := func(_ nn.Weights, rs []ClientResult) nn.Weights { return weightedAverage(rs) }
	for _, tc := range []struct {
		name  string
		strat func() Strategy
		want  func(global nn.Weights, rs []ClientResult) nn.Weights
	}{
		{"FedAvg", func() Strategy { return FedAvg{} }, average},
		{"FedProx", func() Strategy { return &FedProx{Mu: 0.1} }, average},
		{"q-FedAvg", func() Strategy { return &QFedAvg{Q: q} },
			func(g nn.Weights, rs []ClientResult) nn.Weights { return qFFLReference(q, g, rs, cfg) }},
		{"Scaffold", func() Strategy { return &Scaffold{TotalClients: totalClients} }, average},
	} {
		for seed := uint64(1); seed <= 8; seed++ {
			for _, scale := range []float64{1, 0.5, 0} {
				what := fmt.Sprintf("%s/seed=%d/scale=%g", tc.name, seed, scale)
				r := frand.New(seed*131 + 7)
				results := randResults(r, 13, 9)
				global := randWeightsLike(r, results[0].Weights, 1)
				for _, res := range results {
					// Clients end near the global they trained from, so the
					// q-FFL step is not dwarfed by its denominator.
					res.Weights.Lerp(0.9, global)
				}
				strat := tc.strat()

				// SCAFFOLD: stage a control-variate step per client, as its
				// LocalUpdate would have.
				sc, _ := strat.(*Scaffold)
				var c0 nn.Weights
				var deltas []nn.Weights
				if sc != nil {
					c0 = randWeightsLike(r, global, 1)
					sc.c = c0.Clone()
					sc.clients = map[int]nn.Weights{}
					sc.pending = map[int]scaffoldUpdate{}
					for _, res := range results {
						up := scaffoldUpdate{ck: randWeightsLike(r, global, 1), dck: randWeightsLike(r, global, 1)}
						sc.pending[res.ClientID] = up
						deltas = append(deltas, up.dck)
					}
				}

				got := streamAggregate(strat, global, results, scale, cfg)
				if scale == 0 {
					if !sharesStorage(got, global) {
						t.Fatalf("%s: zero-scale folds still produced an update", what)
					}
					if sc != nil {
						requireBitIdentical(t, c0, sc.c, what+" c")
						if len(sc.clients) != 0 || len(sc.pending) != 0 {
							t.Fatalf("%s: zero-scale folds left %d committed / %d staged variates",
								what, len(sc.clients), len(sc.pending))
						}
					}
					continue
				}
				requireWeightsClose(t, what, got, tc.want(global, results), 1e-5)
				if sc != nil {
					// want c0 + scale·(reference step)
					want := scaffoldVariateReference(c0, deltas, totalClients)
					want.Lerp(float32(1-scale), c0)
					requireWeightsClose(t, what+" c", sc.c, want, 1e-5)
					if len(sc.clients) != len(results) || len(sc.pending) != 0 {
						t.Fatalf("%s: %d of %d client variates committed, %d still staged",
							what, len(sc.clients), len(results), len(sc.pending))
					}
				}
			}
		}
	}
}

// The denominator guard: a negative Q can drive q-FFL's denominator
// non-positive, where the rule has no usable step. The round then keeps the
// global instead of falling back to a second aggregation rule.
func TestQFedAvgNonPositiveDenominatorKeepsGlobal(t *testing.T) {
	r := frand.New(5)
	results := randResults(r, 6, 9)
	global := randWeightsLike(r, results[0].Weights, 1)
	acc := (&QFedAvg{Q: -3}).NewAccumulator(global, Default())
	for _, res := range results {
		acc.Fold(res, 1)
	}
	dst := global.Zero()
	if acc.FinalizeInto(dst) {
		t.Fatalf("q-FedAvg installed an update at denominator %g", acc.(*qFedAvgAccumulator).denom)
	}
	requireBitIdentical(t, dst, global.Zero(), "untouched finalize buffer")
}

// Property: streaming FedAvg aggregation is numerically equivalent (within
// float32 tolerance) to the closed-form weightedAverage, for randomized
// client counts, sample sizes and weight values.
func TestStreamingFedAvgMatchesWeightedAverage(t *testing.T) {
	f := func(seed uint16, kRaw, dimRaw uint8) bool {
		r := frand.New(uint64(seed) + 11)
		k := int(kRaw)%24 + 1
		dim := int(dimRaw)%16 + 1
		results := randResults(r, k, dim)
		global := results[0].Weights.Zero()

		want := weightedAverage(results)
		got := streamAggregate(FedAvg{}, global, results, 1, Default())

		for i := range want.Params {
			if !got.Params[i].AllClose(want.Params[i], 1e-4) {
				return false
			}
		}
		for i := range want.States {
			if !got.States[i].AllClose(want.States[i], 1e-4) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Round stats assembled from streamed (weight-stripped) results must still
// carry all the scalar accounting. (The stripping itself is internal to
// RunRound and not observable here.)
func TestStreamingRoundStatsIntact(t *testing.T) {
	srv := fixtureServer(t, FedAvg{}, 3)
	stats := srv.RunRound(0)
	if len(stats.Sampled) != srv.Cfg.ClientsPerRound {
		t.Fatalf("sampled %d clients, want %d", len(stats.Sampled), srv.Cfg.ClientsPerRound)
	}
	if stats.MeanLoss <= 0 || stats.MeanInit <= 0 {
		t.Fatalf("losses not populated: %+v", stats)
	}
	if stats.BytesUp <= 0 || stats.BytesDown <= 0 {
		t.Fatalf("communication accounting not populated: %+v", stats)
	}
}

// An accumulator that never saw a result reports "no update" and leaves the
// finalize buffer alone, so the server keeps the global weights (the
// every-update-rejected contract) — for every strategy.
func TestEmptyAccumulatorFinalizesToGlobal(t *testing.T) {
	global := nn.Weights{Params: []*tensor.Tensor{tensor.Full(3, 4)}}
	for _, s := range allStrategies() {
		acc := s.NewAccumulator(global, Default())
		dst := global.Zero()
		if acc.FinalizeInto(dst) {
			t.Fatalf("%s: empty accumulator claimed an update", s.Name())
		}
		if !dst.Params[0].AllClose(global.Zero().Params[0], 0) {
			t.Fatalf("%s: empty accumulator wrote the finalize buffer", s.Name())
		}
	}
}

// allStrategies returns a fresh instance of every strategy in this package.
func allStrategies() []Strategy {
	return []Strategy{FedAvg{}, &FedProx{Mu: 0.1}, &QFedAvg{Q: 0.1}, &Scaffold{TotalClients: 6}}
}

// Every strategy runs on both engines, and on the asynchronous one under the
// CI chaos configuration (crash + flaky + corrupt + churn, timeouts with
// backoff, the staleness drop rule, the delta-norm gate), bit-reproducibly
// from one replica to two.
func TestStreamingCapabilityMatrix(t *testing.T) {
	chaos := AsyncConfig{
		Staleness:    PolynomialStaleness{Alpha: 0.5},
		Latency:      simclock.Uniform{Lo: 0.5, Hi: 2, Seed: 17},
		Concurrency:  8,
		Buffer:       4,
		Timeout:      4,
		RetryBackoff: 0.5,
		MaxAttempts:  2,
		MaxStaleness: 3,
	}
	for i, s := range allStrategies() {
		fresh := func() Strategy { return allStrategies()[i] }
		t.Run(s.Name(), func(t *testing.T) {
			requireFinite := func(what string, w nn.Weights) {
				t.Helper()
				for _, p := range w.Params {
					if p.HasNaN() {
						t.Fatalf("%s: NaN weights", what)
					}
				}
			}
			sync := fixtureServer(t, fresh(), 3)
			sync.Run(nil)
			requireFinite("sync", sync.Global)

			async := asyncFixtureServer(t, fresh(), AsyncConfig{
				Staleness:   PolynomialStaleness{Alpha: 0.5},
				Latency:     simclock.StragglerTail{Lo: 0.5, Hi: 2, TailProb: 0.3, TailFactor: 8, Seed: 17},
				Concurrency: 8,
				Buffer:      4,
			}, 3)
			async.Run(nil)
			requireFinite("async", async.Global)
			if async.version == 0 {
				t.Fatal("async run never installed a global version")
			}

			runChaos := func(workers int) (*AsyncServer, []RoundStats) {
				m, err := faults.ParseSpec("crash:0.2+flaky:0.25,1+corrupt:0.25,mix+churn:20,0.5", 99)
				if err != nil {
					t.Fatal(err)
				}
				srv := gateAsyncServer(t, fresh(), chaos, func(c *Config) {
					c.Faults = m
					c.MaxDeltaNorm = 100
					c.Workers = workers
				})
				var stats []RoundStats
				srv.Run(func(st RoundStats) { stats = append(stats, st) })
				return srv, stats
			}
			a, sa := runChaos(1)
			b, sb := runChaos(2)
			requireFinite("chaos", a.Global)
			requireBitIdentical(t, a.Global, b.Global, "chaos reproducibility")
			if !reflect.DeepEqual(sa, sb) {
				t.Fatal("chaos stats streams diverged between identical runs")
			}
		})
	}
}

// Race coverage: parallel replicas exercise the window executor's claim and
// fold cursors, the scratch ring and the one accumulator concurrently. Run
// with -race in CI.
func TestRunRoundParallelRace(t *testing.T) {
	srv := fixtureServer(t, FedAvg{}, 4)
	var sampled int
	srv.Run(func(s RoundStats) { sampled += len(s.Sampled) })
	if sampled != srv.Cfg.Rounds*srv.Cfg.ClientsPerRound {
		t.Fatalf("participation accounting broke under streaming: %d", sampled)
	}
	for _, p := range srv.Global.Params {
		if p.HasNaN() {
			t.Fatal("NaN weights after parallel streaming rounds")
		}
	}
}
