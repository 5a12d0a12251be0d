package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"heteroswitch/internal/faults"
	"heteroswitch/internal/fl"
	"heteroswitch/internal/frand"
	"heteroswitch/internal/nn"
	"heteroswitch/internal/simclock"
	"heteroswitch/internal/tensor"
	"heteroswitch/internal/vec"
)

// The aggregation step's pinned bytes: final global weights (every
// math.Float32bits of parameters and BN states) and the whole RoundStats
// stream (every field, the Rejected lists included), for the four aggregation
// rules on both window drivers under corruption, with the validation gate at a
// finite bound and at +Inf. The same constants hold in the default build (AVX2
// fold and gate kernels) and under -tags purego (the Go loops): a kernel that
// changes one rounding of one float64 sum, or one gate decision, moves a row.

// pinBuilder is a small net with every kind of aggregated tensor: conv and
// dense parameters of lengths around the kernels' 4- and 16-element blocks
// (27, 3, 1008, 21, 42, 2) and batch-norm running statistics as states.
func pinBuilder() fl.Builder {
	return func() *nn.Network {
		r := frand.New(77)
		return nn.NewNetwork(
			nn.NewConv2D(r, 1, 3, 3, 1, 1, 1),
			nn.NewBatchNorm2D(3, vec.ActReLU),
			nn.NewFlatten(),
			nn.NewDense(r, 3*4*4, 21),
			nn.NewReLU(),
			nn.NewDense(r, 21, 2),
		)
	}
}

var pinStrategies = []struct {
	name string
	mk   func() fl.Strategy
}{
	{"fedavg", func() fl.Strategy { return fl.FedAvg{} }},
	{"qfedavg", func() fl.Strategy { return &fl.QFedAvg{Q: 1} }},
	{"scaffold", func() fl.Strategy { return &fl.Scaffold{TotalClients: 6} }},
	{"heteroswitch", func() fl.Strategy { return New() }},
}

// pinDigest hashes the final weights and the stats stream separately, so a
// moved row says which of the two moved.
func pinDigest(w nn.Weights, stats []fl.RoundStats) string {
	hw := fnv.New64a()
	for _, ts := range [][]*tensor.Tensor{w.Params, w.States} {
		for _, t := range ts {
			for _, v := range t.Data() {
				b := math.Float32bits(v)
				hw.Write([]byte{byte(b), byte(b >> 8), byte(b >> 16), byte(b >> 24)})
			}
		}
	}
	hs := fnv.New64a()
	fmt.Fprintf(hs, "%+v", stats) // %v of a float64 is its shortest round-trip form: one string per bit pattern
	return fmt.Sprintf("w=%016x s=%016x", hw.Sum64(), hs.Sum64())
}

// pinRun runs one pinned configuration and returns its digest and stats. The
// async arm is perfbook's agg_async_chaos configuration in small:
// straggler-tail latency, crash, flaky, corrupt (mix) and churn faults,
// timeouts with backoff, the staleness drop rule. The barrier server takes the
// corruption clause alone. The pins run at Workers = 2 and the automatic
// intra-op budget; no digest may depend on either.
func pinRun(t *testing.T, strat fl.Strategy, async bool, maxNorm float64, workers, intraOp int) (string, []fl.RoundStats) {
	t.Helper()
	clients, _ := toyPopulation(21)
	cfg := fl.Config{
		Rounds: 10, ClientsPerRound: 4, BatchSize: 4, LocalEpochs: 1,
		LR: 0.1, Seed: 5, Workers: workers, IntraOp: intraOp, MaxDeltaNorm: maxNorm,
	}
	spec := "corrupt:0.3,mix"
	if async {
		spec = "crash:0.1+flaky:0.15,1+corrupt:0.3,mix+churn:20,0.7"
	}
	var err error
	if cfg.Faults, err = faults.ParseSpec(spec, 99); err != nil {
		t.Fatal(err)
	}
	var stats []fl.RoundStats
	record := func(s fl.RoundStats) { stats = append(stats, s) }
	if !async {
		srv, err := fl.NewServer(cfg, pinBuilder(), nn.SoftmaxCrossEntropy{}, strat, clients)
		if err != nil {
			t.Fatal(err)
		}
		srv.Run(record)
		return pinDigest(srv.Global, stats), stats
	}
	srv, err := fl.NewAsyncServer(cfg, pinBuilder(), nn.SoftmaxCrossEntropy{}, strat, clients, fl.AsyncConfig{
		Staleness:    fl.PolynomialStaleness{Alpha: 0.5},
		Latency:      simclock.StragglerTail{Lo: 0.5, Hi: 2, TailProb: 0.15, TailFactor: 8, Seed: 17},
		Concurrency:  8,
		Buffer:       4,
		Timeout:      6,
		RetryBackoff: 0.5,
		MaxAttempts:  2,
		MaxStaleness: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Run(record)
	return pinDigest(srv.Global, stats), stats
}

// pinnedAggregation was recorded on the commit before the fold and gate
// kernels existed. The rows marked "re-pinned" moved once, with the fix that
// makes MaxDeltaNorm = +Inf reject an Inf update (+Inf <= +Inf had admitted
// it): every gate=+Inf run had folded one. No other commit changed a row.
var pinnedAggregation = map[string]string{
	"fedavg/async=false/gate=100":        "w=270376a7c9807873 s=f0f0f457a48646f5",
	"fedavg/async=false/gate=+Inf":       "w=d31acb351ac3d31a s=3445414d389a2aeb", // re-pinned
	"fedavg/async=true/gate=100":         "w=196f27a4eb425574 s=e039f4d843e9c073",
	"fedavg/async=true/gate=+Inf":        "w=bc79112dd6c7bd55 s=3699561587c8c156", // re-pinned
	"qfedavg/async=false/gate=100":       "w=d0d0d4bd7f3689fe s=f7a5c70d42748f92",
	"qfedavg/async=false/gate=+Inf":      "w=b7053c2753b95f96 s=187caba9a36d2002", // re-pinned
	"qfedavg/async=true/gate=100":        "w=d7dc6ea4054577b2 s=df1f52a91f525034",
	"qfedavg/async=true/gate=+Inf":       "w=5a4ac90f00d596a3 s=e41c3047d6cc0840", // re-pinned
	"scaffold/async=false/gate=100":      "w=a43f7769361404f1 s=8643113816d18184",
	"scaffold/async=false/gate=+Inf":     "w=a205c17d66841bf5 s=874b1e5dd35f56bc", // re-pinned
	"scaffold/async=true/gate=100":       "w=ae68445cdae75ef6 s=ce373af2d043c191",
	"scaffold/async=true/gate=+Inf":      "w=0792fab29752cf93 s=2371743d2907d6e4", // re-pinned
	"heteroswitch/async=false/gate=100":  "w=424239b234e0d237 s=37328537317b2d8d",
	"heteroswitch/async=false/gate=+Inf": "w=f8380c2f5f4d3062 s=5da0b22062400907", // re-pinned
	"heteroswitch/async=true/gate=100":   "w=2b5e3737a3ccfd38 s=bd136e755b23704f",
	"heteroswitch/async=true/gate=+Inf":  "w=ca3bfb97aa6933e3 s=08ac3223117bb372", // re-pinned
}

func TestPinnedAggregationBytes(t *testing.T) {
	for _, s := range pinStrategies {
		for _, async := range []bool{false, true} {
			for _, maxNorm := range []float64{100, math.Inf(1)} {
				name := fmt.Sprintf("%s/async=%v/gate=%v", s.name, async, maxNorm)
				got, _ := pinRun(t, s.mk(), async, maxNorm, 2, 0)
				if want := pinnedAggregation[name]; got != want {
					t.Errorf("%q: %q,\n\twas pinned as %q", name, got, want)
				}
			}
		}
	}
}

// The barrier server's shards merge float64 sums that round to float32 once,
// at finalize, so the merge order — the one thing Workers changes — stays
// below float32 resolution and the sync pins hold at every worker count.
// Workers is the one training-parallelism knob, so this is a contract, not
// a coincidence of one configuration.
func TestSyncPinsHoldAtEveryWorkerCount(t *testing.T) {
	for _, s := range pinStrategies {
		for _, maxNorm := range []float64{100, math.Inf(1)} {
			name := fmt.Sprintf("%s/async=false/gate=%v", s.name, maxNorm)
			for _, workers := range []int{1, 2, 3, 4} {
				if got, _ := pinRun(t, s.mk(), false, maxNorm, workers, 0); got != pinnedAggregation[name] {
					t.Errorf("%q at workers=%d: %q, want %q", name, workers, got, pinnedAggregation[name])
				}
			}
		}
	}
}

// The event loop trains a window on Config.Workers replicas and folds in
// event order, so the async pins hold at every worker count and intra-op
// budget. The pin population has six clients and eight jobs in flight, so
// windows hold the same client twice; the later step must start only after
// the earlier one is folded, because SCAFFOLD's fold commits the c_k that
// the later step trains with.
func TestAsyncPinsHoldAtEveryWorkerCount(t *testing.T) {
	repeats := 0
	for _, s := range pinStrategies {
		name := s.name + "/async=true/gate=100"
		for _, workers := range []int{1, 2, 3, 4} {
			for _, intraOp := range []int{1, 4} {
				got, stats := pinRun(t, s.mk(), true, 100, workers, intraOp)
				if want := pinnedAggregation[name]; got != want {
					t.Errorf("%q at workers=%d intraop=%d: %q, want %q", name, workers, intraOp, got, want)
				}
				for _, st := range stats {
					seen := map[int]bool{}
					for _, id := range st.Sampled {
						if seen[id] {
							repeats++
						}
						seen[id] = true
					}
				}
			}
		}
	}
	if repeats == 0 {
		t.Fatal("no window held the same client twice; the same-client ordering goes untested")
	}
}
