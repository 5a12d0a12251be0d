package core

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"heteroswitch/internal/fl"
	"heteroswitch/internal/nn"
	"heteroswitch/internal/simclock"
)

// normProbe records the L2 norm of every honest update's delta — the quantity
// the validation gate bounds.
type normProbe struct {
	fl.Strategy
	norms *[]float64
}

func (p normProbe) LocalUpdate(ctx *fl.ClientContext) fl.ClientResult {
	res := p.Strategy.LocalUpdate(ctx)
	*p.norms = append(*p.norms, math.Sqrt(ctx.Global.L2DistSq(res.Weights)))
	return res
}

// HeteroSwitch's async contract: with zero latency, discount ≡ 1, and
// Concurrency == Buffer == K, the asynchronous run must be bit-identical
// (tolerance 0) to the synchronous streaming run — the aggregated weights,
// the whole RoundStats, AND the L_EMA switching signal, since the accumulator
// folds the eq. 1 inputs with the same discount as the weights.
//
// The gated arm mirrors fl's TestAsyncZeroLatencyMatchesSyncStreaming: the
// validation gate at the measured median honest delta norm of round 0, no
// fault model, two rounds (the bound stops rejecting once deltas shrink),
// so each round rejects some updates and folds the rest, and a rejected
// client must stay out of L_EMA on both servers alike. An all-rejected round
// is excluded for the reason given there: it leaves Version behind the round
// number, and the two servers' RNG keys diverge by design.
func TestHeteroSwitchAsyncZeroLatencyMatchesSync(t *testing.T) {
	cfg := fl.Config{
		Rounds: 8, ClientsPerRound: 4, BatchSize: 4, LocalEpochs: 1,
		LR: 0.1, Seed: 13, Workers: 1,
	}
	for _, gated := range []bool{false, true} {
		cfg := cfg
		if gated {
			var norms []float64
			clients, _ := toyPopulation(33)
			probe, err := fl.NewServer(cfg, toyBuilder(), nn.SoftmaxCrossEntropy{}, normProbe{New(), &norms}, clients)
			if err != nil {
				t.Fatal(err)
			}
			probe.RunRound(0)
			sort.Float64s(norms)
			cfg.MaxDeltaNorm, cfg.Rounds = (norms[1]+norms[2])/2, 2
		}

		hsSync := New()
		clients, _ := toyPopulation(33)
		sync, err := fl.NewServer(cfg, toyBuilder(), nn.SoftmaxCrossEntropy{}, hsSync, clients)
		if err != nil {
			t.Fatal(err)
		}
		var syncStats []fl.RoundStats
		sync.Run(func(s fl.RoundStats) { syncStats = append(syncStats, s) })

		hsAsync := New()
		clients, _ = toyPopulation(33)
		async, err := fl.NewAsyncServer(cfg, toyBuilder(), nn.SoftmaxCrossEntropy{}, hsAsync, clients,
			fl.AsyncConfig{Staleness: fl.PolynomialStaleness{Alpha: 0}, Latency: simclock.Constant{D: 0}})
		if err != nil {
			t.Fatal(err)
		}
		var asyncStats []fl.RoundStats
		async.Run(func(s fl.RoundStats) { asyncStats = append(asyncStats, s) })

		if len(syncStats) != cfg.Rounds || len(asyncStats) != cfg.Rounds {
			t.Fatalf("gated=%v: %d sync and %d async rounds, want %d", gated, len(syncStats), len(asyncStats), cfg.Rounds)
		}
		for i, ss := range syncStats {
			as := asyncStats[i]
			if gated && (len(ss.Rejected) == 0 || len(ss.Rejected) == len(ss.Sampled)) {
				t.Fatalf("round %d: gate at the median norm rejected %d of %d updates; the arm needs some but not all",
					i, len(ss.Rejected), len(ss.Sampled))
			}
			// The event loop's own fields must read "no clock, no staleness,
			// one version per window"; every other field must be identical.
			if as.VirtualTime != 0 || as.MeanStaleness != 0 || as.MaxStaleness != 0 || as.MeanDiscount != 1 || as.Version != i+1 {
				t.Fatalf("gated=%v round %d saw time or staleness at zero latency: %+v", gated, i, as)
			}
			as.MeanDiscount, as.Version = 0, 0
			if !reflect.DeepEqual(ss, as) {
				t.Fatalf("gated=%v round %d stats diverged:\n sync  %+v\n async %+v", gated, i, ss, as)
			}
		}
		for i := range sync.Global.Params {
			if !sync.Global.Params[i].AllClose(async.Global.Params[i], 0) {
				t.Fatalf("gated=%v: param %d not bit-identical between sync and async HeteroSwitch", gated, i)
			}
		}
		ls, okS := hsSync.LEMA()
		la, okA := hsAsync.LEMA()
		if !okS || !okA {
			t.Fatal("L_EMA not initialized")
		}
		if ls != la {
			t.Fatalf("gated=%v: L_EMA diverged: sync %v, async %v", gated, ls, la)
		}
	}
}

// Race coverage: the async completion loop with full switching — LocalUpdate
// reads L_EMA while window finalization writes it, and the intra-op budget
// runs the lazily evaluated training through the parallel kernels. Run with
// -race in CI.
func TestHeteroSwitchAsyncStragglerRace(t *testing.T) {
	clients, _ := toyPopulation(47)
	cfg := fl.Config{
		Rounds: 6, ClientsPerRound: 4, BatchSize: 4, LocalEpochs: 1,
		LR: 0.1, Seed: 29, Workers: 1, IntraOp: 4,
	}
	hs := New()
	srv, err := fl.NewAsyncServer(cfg, toyBuilder(), nn.SoftmaxCrossEntropy{}, hs, clients,
		fl.AsyncConfig{
			Staleness:   fl.PolynomialStaleness{Alpha: 0.5},
			Latency:     simclock.StragglerTail{Lo: 0.5, Hi: 2, TailProb: 0.3, TailFactor: 8, Seed: 19},
			Concurrency: 8,
			Buffer:      4,
		})
	if err != nil {
		t.Fatal(err)
	}
	srv.Run(nil)
	if lema, ok := hs.LEMA(); !ok || lema != lema {
		t.Fatalf("L_EMA bad after async run: %v (%v)", lema, ok)
	}
	for _, p := range srv.Global.Params {
		if p.HasNaN() {
			t.Fatal("NaN weights after async HeteroSwitch run")
		}
	}
}

// Staleness discounts must reach the L_EMA inputs: a window of stale results
// still yields a finite, sane switching signal (discounted loss sum divided
// by discounted sample sum — not mixed scales).
func TestHeteroSwitchAsyncDiscountedLEMAFinite(t *testing.T) {
	clients, _ := toyPopulation(61)
	cfg := fl.Config{
		Rounds: 6, ClientsPerRound: 4, BatchSize: 4, LocalEpochs: 1,
		LR: 0.1, Seed: 7, Workers: 1,
	}
	hs := New()
	srv, err := fl.NewAsyncServer(cfg, toyBuilder(), nn.SoftmaxCrossEntropy{}, hs, clients,
		fl.AsyncConfig{
			Staleness:   fl.PolynomialStaleness{Alpha: 2},
			Latency:     simclock.Uniform{Lo: 0.5, Hi: 4, Seed: 23},
			Concurrency: 12,
			Buffer:      4,
		})
	if err != nil {
		t.Fatal(err)
	}
	sawStale := false
	srv.Run(func(s fl.RoundStats) {
		if s.MaxStaleness > 0 {
			sawStale = true
		}
	})
	if !sawStale {
		t.Fatal("deep pipeline never produced a stale fold")
	}
	lema, ok := hs.LEMA()
	if !ok || lema <= 0 || lema != lema {
		t.Fatalf("L_EMA invalid after discounted folds: %v (%v)", lema, ok)
	}
}
