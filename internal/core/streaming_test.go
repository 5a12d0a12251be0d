package core

import (
	"math"
	"testing"

	"heteroswitch/internal/fl"
	"heteroswitch/internal/frand"
	"heteroswitch/internal/nn"
	"heteroswitch/internal/simclock"
	"heteroswitch/internal/tensor"
)

// weightedAverage is FedAvg's closed-form rule — the sample-count-weighted
// average of client weights in float32, client order — kept as the oracle.
func weightedAverage(results []fl.ClientResult) nn.Weights {
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

// HeteroSwitch's row of the aggregation oracle (internal/fl holds the other
// strategies'): for eight random rounds and a full, a discounted, and a zero
// fold scale, the accumulator path equals the closed-form rule — FedAvg's
// weighted average plus eq. 1 over the round's sample-weighted mean train
// loss. A uniform scale cancels in both; scale 0 is "nothing folded": global
// kept, L_EMA untouched.
func TestHeteroSwitchAccumulatorMatchesClosedForm(t *testing.T) {
	cfg := fl.Default()
	const prior = 1.7 // L_EMA going into the round
	for seed := uint64(1); seed <= 8; seed++ {
		for _, scale := range []float64{1, 0.5, 0} {
			r := frand.New(seed*17 + 3)
			results := make([]fl.ClientResult, 13)
			var lossSum, total float64
			for i := range results {
				results[i] = fl.ClientResult{
					ClientID:   i,
					NumSamples: r.Intn(32) + 1,
					Weights: nn.Weights{
						Params: []*tensor.Tensor{tensor.Randn(r, 1, 9), tensor.Randn(r, 1, 3)},
						States: []*tensor.Tensor{tensor.Randn(r, 1, 2)},
					},
					TrainLoss: r.Float64(),
				}
				lossSum += results[i].TrainLoss * float64(results[i].NumSamples)
				total += float64(results[i].NumSamples)
			}
			global := results[0].Weights.Zero()

			hs := New()
			hs.updateLEMA(prior)
			acc := hs.NewAccumulator(global, cfg)
			for _, res := range results {
				acc.Fold(res, scale)
			}
			got := global.Zero()
			updated := acc.FinalizeInto(got)
			lema, _ := hs.LEMA()

			if scale == 0 {
				if updated || lema != prior {
					t.Fatalf("seed=%d: zero-scale folds produced an update (L_EMA %v)", seed, lema)
				}
				continue
			}
			if !updated {
				t.Fatalf("seed=%d scale=%g: no update", seed, scale)
			}
			if want := hs.Alpha*(lossSum/total) + (1-hs.Alpha)*prior; math.Abs(lema-want) > 1e-9 {
				t.Fatalf("seed=%d scale=%g: L_EMA %v, want %v", seed, scale, lema, want)
			}
			want := weightedAverage(results)
			for i := range want.Params {
				if !got.Params[i].AllClose(want.Params[i], 1e-5) {
					t.Fatalf("seed=%d scale=%g: param %d off the weighted average", seed, scale, i)
				}
			}
			for i := range want.States {
				if !got.States[i].AllClose(want.States[i], 1e-5) {
					t.Fatalf("seed=%d scale=%g: state %d off the weighted average", seed, scale, i)
				}
			}
		}
	}
}

// poisoned plants a NaN in the target client's update; absent keeps the
// target's results out of every fold — the ground truth the validation gate
// must reproduce.
type poisoned struct {
	*HeteroSwitch
	target int
}

func (p poisoned) LocalUpdate(ctx *fl.ClientContext) fl.ClientResult {
	res := p.HeteroSwitch.LocalUpdate(ctx)
	if ctx.Client.ID == p.target {
		res.Weights.Params[0].Data()[0] = float32(math.NaN())
	}
	return res
}

type absent struct {
	*HeteroSwitch
	target int
}

func (a absent) NewAccumulator(global nn.Weights, cfg fl.Config) fl.Accumulator {
	return absentAccumulator{a.HeteroSwitch.NewAccumulator(global, cfg), a.target}
}

type absentAccumulator struct {
	fl.Accumulator
	target int
}

func (a absentAccumulator) Fold(r fl.ClientResult, scale float64) {
	if r.ClientID != a.target {
		a.Accumulator.Fold(r, scale)
	}
}

// The validation gate keeps a poisoned update out of HeteroSwitch on both
// engines at tolerance 0: global weights and L_EMA are bit-identical to a
// run in which the poisoned client's results never reached a fold.
func TestHeteroSwitchGateKeepsPoisonOut(t *testing.T) {
	const target = 1
	cfg := fl.Config{
		Rounds: 8, ClientsPerRound: 4, BatchSize: 4, LocalEpochs: 1,
		LR: 0.1, Seed: 13, Workers: 2,
	}
	gated := cfg
	gated.MaxDeltaNorm = math.Inf(1) // non-finite check only
	async := fl.AsyncConfig{
		Staleness:   fl.PolynomialStaleness{Alpha: 0.5},
		Latency:     simclock.Uniform{Lo: 0.5, Hi: 2, Seed: 17},
		Concurrency: 8,
		Buffer:      4,
	}
	for _, engine := range []string{"sync", "async"} {
		run := func(cfg fl.Config, strat fl.Strategy) (global nn.Weights, rejected int) {
			clients, _ := toyPopulation(33)
			if engine == "sync" {
				srv, err := fl.NewServer(cfg, toyBuilder(), nn.SoftmaxCrossEntropy{}, strat, clients)
				if err != nil {
					t.Fatal(err)
				}
				srv.Run(func(st fl.RoundStats) { rejected += len(st.Rejected) })
				return srv.Global, rejected
			}
			srv, err := fl.NewAsyncServer(cfg, toyBuilder(), nn.SoftmaxCrossEntropy{}, strat, clients, async)
			if err != nil {
				t.Fatal(err)
			}
			srv.Run(func(st fl.RoundStats) { rejected += len(st.Rejected) })
			return srv.Global, rejected
		}
		ref, hs := New(), New()
		want, _ := run(cfg, absent{ref, target})
		got, rejected := run(gated, poisoned{hs, target})
		if rejected == 0 {
			t.Fatalf("%s: target client never sampled; fixture broken", engine)
		}
		for i := range want.Params {
			if got.Params[i].HasNaN() || !got.Params[i].AllClose(want.Params[i], 0) {
				t.Fatalf("%s: param %d differs from the absent-client run", engine, i)
			}
		}
		lw, _ := ref.LEMA()
		lg, _ := hs.LEMA()
		if lw != lg {
			t.Fatalf("%s: L_EMA %v differs from the absent-client run's %v", engine, lg, lw)
		}
	}
}

// Race coverage for the lema mutex and the window executor: parallel
// replicas and full switching (LocalUpdate reads LEMA while FinalizeInto
// writes it). Run with -race in CI.
func TestHeteroSwitchParallelRace(t *testing.T) {
	clients, _ := toyPopulation(47)
	cfg := fl.Config{
		Rounds: 10, ClientsPerRound: 5, BatchSize: 4, LocalEpochs: 1,
		LR: 0.1, Seed: 29, Workers: 4,
	}
	hs := New()
	srv, err := fl.NewServer(cfg, toyBuilder(), nn.SoftmaxCrossEntropy{}, hs, clients)
	if err != nil {
		t.Fatal(err)
	}
	srv.Run(nil)
	if lema, ok := hs.LEMA(); !ok || math.IsNaN(lema) {
		t.Fatalf("L_EMA bad after parallel run: %v (%v)", lema, ok)
	}
	for _, p := range srv.Global.Params {
		if p.HasNaN() {
			t.Fatal("NaN weights after parallel streaming HeteroSwitch")
		}
	}
}

// The SWAD per-batch snapshot buffer must not leak into results: two
// consecutive rounds in ModeTransformSWAD (SWAD always on) must keep
// producing finite, changing weights.
func TestSWADBufferReuseAcrossRounds(t *testing.T) {
	clients, _ := toyPopulation(61)
	cfg := fl.Config{
		Rounds: 3, ClientsPerRound: 4, BatchSize: 4, LocalEpochs: 2,
		LR: 0.1, Seed: 7, Workers: 2,
	}
	srv, err := fl.NewServer(cfg, toyBuilder(), nn.SoftmaxCrossEntropy{}, NewWithMode(ModeTransformSWAD), clients)
	if err != nil {
		t.Fatal(err)
	}
	prev := srv.Global.Clone()
	srv.Run(nil)
	if srv.Global.Params[0].AllClose(prev.Params[0], 0) {
		t.Fatal("SWAD rounds did not update the global weights")
	}
	for _, p := range srv.Global.Params {
		if p.HasNaN() {
			t.Fatal("NaN weights from SWAD buffer reuse")
		}
	}
}
