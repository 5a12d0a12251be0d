package fl

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"heteroswitch/internal/nn"
	"heteroswitch/internal/simclock"
)

// asyncFixtureServer mirrors fixtureServer on the asynchronous path: same
// population, hyperparameters, and seed.
func asyncFixtureServer(t *testing.T, strat Strategy, async AsyncConfig, workers int) *AsyncServer {
	t.Helper()
	perDevice := fixtureData(24, 3)
	clients, err := BuildPopulation(perDevice, []int{3, 3}, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Rounds: 20, ClientsPerRound: 4, BatchSize: 4, LocalEpochs: 1,
		LR: 0.2, Seed: 11, Workers: workers,
	}
	srv, err := NewAsyncServer(cfg, fixtureBuilder(5), nn.SoftmaxCrossEntropy{}, strat, clients, async)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func requireBitIdentical(t *testing.T, a, b nn.Weights, what string) {
	t.Helper()
	for i := range a.Params {
		if !a.Params[i].AllClose(b.Params[i], 0) {
			t.Fatalf("%s: param %d not bit-identical", what, i)
		}
	}
	for i := range a.States {
		if !a.States[i].AllClose(b.States[i], 0) {
			t.Fatalf("%s: state %d not bit-identical", what, i)
		}
	}
}

// normProbe records the L2 norm of every honest update's delta — the quantity
// the validation gate bounds.
type normProbe struct {
	Strategy
	norms *[]float64
}

func (p normProbe) LocalUpdate(ctx *ClientContext) ClientResult {
	res := p.Strategy.LocalUpdate(ctx)
	*p.norms = append(*p.norms, math.Sqrt(ctx.Global.L2DistSq(res.Weights)))
	return res
}

// medianDeltaNorm measures the median honest delta norm of the fixture's
// first round under the strategy, with the gate off.
func medianDeltaNorm(t *testing.T, strat Strategy) float64 {
	t.Helper()
	var norms []float64
	srv := fixtureServer(t, normProbe{strat, &norms}, 1)
	srv.RunRound(0)
	sort.Float64s(norms)
	n := len(norms)
	return (norms[(n-1)/2] + norms[n/2]) / 2
}

// The async contract: with zero latency, discount ≡ 1, and
// Concurrency == Buffer == K, the asynchronous server is BIT-identical
// (tolerance 0) to the synchronous server at Workers = 1 — weights, strategy
// state, and the whole RoundStats — for every strategy, at any Workers of its
// own (it runs at 2 here: the event loop folds in event order whatever trains
// the steps). This is what keeps the two window drivers honest about the core
// they share.
//
// The gated arms arm the validation gate with no fault model (corruption is
// keyed by round on one server and by job on the other, so poisoned clients
// legitimately differ): MaxDeltaNorm is the measured median honest delta
// norm of round 0, so every round rejects some honest updates and folds the
// rest, and both servers must reject the same clients. They run three
// rounds: honest deltas shrink as training converges, and past that a bound
// fixed at round 0's median stops rejecting anything. A bound that rejected
// a whole round is deliberately out of scope: that round installs no global,
// so Version falls behind the round number, and from then on the async
// server keys client RNGs by a different number than the barrier server —
// the two diverge by design, not by bug.
func TestAsyncZeroLatencyMatchesSyncStreaming(t *testing.T) {
	for _, tc := range []struct {
		name  string
		strat func() Strategy
		gated bool
	}{
		{"FedAvg", func() Strategy { return FedAvg{} }, false},
		{"FedProx", func() Strategy { return &FedProx{Mu: 0.1} }, false},
		{"q-FedAvg", func() Strategy { return &QFedAvg{Q: 0.1} }, false},
		{"Scaffold", func() Strategy { return &Scaffold{TotalClients: 6} }, false},
		{"FedAvg gated", func() Strategy { return FedAvg{} }, true},
		{"Scaffold gated", func() Strategy { return &Scaffold{TotalClients: 6} }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var maxNorm float64
			if tc.gated {
				maxNorm = medianDeltaNorm(t, tc.strat())
			}
			syncStrat, asyncStrat := tc.strat(), tc.strat()
			sync := fixtureServer(t, syncStrat, 1)
			if tc.gated {
				sync.Cfg.MaxDeltaNorm, sync.Cfg.Rounds = maxNorm, 3
			}
			var syncStats []RoundStats
			sync.Run(func(s RoundStats) { syncStats = append(syncStats, s) })

			// PolynomialStaleness{Alpha: 0} makes the discount identically 1.
			async := asyncFixtureServer(t, asyncStrat, AsyncConfig{
				Staleness: PolynomialStaleness{Alpha: 0},
				Latency:   simclock.Constant{D: 0},
			}, 2)
			if tc.gated {
				async.Cfg.MaxDeltaNorm, async.Cfg.Rounds = maxNorm, 3
			}
			var asyncStats []RoundStats
			async.Run(func(s RoundStats) { asyncStats = append(asyncStats, s) })

			if len(syncStats) != len(asyncStats) {
				t.Fatalf("round counts differ: %d vs %d", len(syncStats), len(asyncStats))
			}
			for i := range syncStats {
				ss, as := syncStats[i], asyncStats[i]
				if tc.gated && (len(ss.Rejected) == 0 || len(ss.Rejected) == len(ss.Sampled)) {
					t.Fatalf("round %d: gate at the median norm rejected %d of %d updates; the arm needs some but not all",
						i, len(ss.Rejected), len(ss.Sampled))
				}
				// What only the event loop reports must read as "no clock, no
				// staleness, one version per window" ...
				if as.VirtualTime != 0 || as.MeanStaleness != 0 || as.MaxStaleness != 0 || as.MeanDiscount != 1 || as.Version != i+1 {
					t.Fatalf("round %d saw time or staleness at zero latency: %+v", i, as)
				}
				// ... and everything else — Round, MeanLoss, MeanInit, Sampled,
				// Dropped, TotalEpochs, BytesDown, BytesUp, Rejected,
				// BytesWasted, and the chaos counters both leave zero — must be
				// identical, field for field.
				as.MeanDiscount, as.Version = 0, 0
				if !reflect.DeepEqual(ss, as) {
					t.Fatalf("round %d stats diverged:\n sync  %+v\n async %+v", i, ss, as)
				}
			}
			requireBitIdentical(t, sync.Global, async.Global, tc.name)
			if sc, ok := syncStrat.(*Scaffold); ok {
				requireBitIdentical(t, sc.c, asyncStrat.(*Scaffold).c, "server control variate")
			}
		})
	}
}

// Two async runs with the same seed and latency model must be bit-identical —
// weights, virtual clock, and staleness telemetry — also when one trains on
// a single replica and the other on three.
func TestAsyncRunsAreBitReproducible(t *testing.T) {
	mk := func(workers int) (*AsyncServer, []RoundStats) {
		srv := asyncFixtureServer(t, FedAvg{}, AsyncConfig{
			Staleness:   PolynomialStaleness{Alpha: 0.5},
			Latency:     simclock.StragglerTail{Lo: 0.5, Hi: 2, TailProb: 0.3, TailFactor: 8, Seed: 17},
			Concurrency: 8,
			Buffer:      4,
		}, workers)
		var stats []RoundStats
		srv.Run(func(s RoundStats) { stats = append(stats, s) })
		return srv, stats
	}
	a, sa := mk(1)
	b, sb := mk(3)
	requireBitIdentical(t, a.Global, b.Global, "reproducibility")
	for i := range sa {
		if sa[i].VirtualTime != sb[i].VirtualTime ||
			sa[i].MeanStaleness != sb[i].MeanStaleness ||
			sa[i].MeanDiscount != sb[i].MeanDiscount ||
			sa[i].Version != sb[i].Version {
			t.Fatalf("round %d telemetry diverged: %+v vs %+v", i, sa[i], sb[i])
		}
	}
}

// With more jobs in flight than the aggregation buffer and a straggler tail,
// windows overlap: results must arrive stale and the polynomial policy must
// discount them.
func TestAsyncStalenessEngagesUnderStragglers(t *testing.T) {
	srv := asyncFixtureServer(t, FedAvg{}, AsyncConfig{
		Staleness:   PolynomialStaleness{Alpha: 0.5},
		Latency:     simclock.StragglerTail{Lo: 0.5, Hi: 2, TailProb: 0.4, TailFactor: 16, Seed: 5},
		Concurrency: 8,
		Buffer:      4,
	}, 1)
	sawStale, sawDiscount := false, false
	var lastTime float64
	srv.Run(func(s RoundStats) {
		if s.VirtualTime < lastTime {
			t.Fatalf("virtual time went backwards: %v after %v", s.VirtualTime, lastTime)
		}
		lastTime = s.VirtualTime
		if s.MaxStaleness > 0 {
			sawStale = true
		}
		if s.MeanDiscount < 1 {
			sawDiscount = true
		}
		if s.MeanDiscount > 1 || s.MeanDiscount <= 0 {
			t.Fatalf("discount out of range: %+v", s)
		}
	})
	if !sawStale || !sawDiscount {
		t.Fatalf("straggler run never produced stale folds (stale %v, discount %v)", sawStale, sawDiscount)
	}
	if lastTime <= 0 {
		t.Fatal("virtual clock never advanced under nonzero latency")
	}
	for _, p := range srv.Global.Params {
		if p.HasNaN() {
			t.Fatal("NaN weights after stale aggregation")
		}
	}
}

// The version store must bound its footprint: at most Concurrency-Buffer
// jobs stay in flight between windows, and old versions recycle once their
// last reader completes.
func TestAsyncVersionStoreBounded(t *testing.T) {
	srv := asyncFixtureServer(t, FedAvg{}, AsyncConfig{
		Staleness:   PolynomialStaleness{Alpha: 0.5},
		Latency:     simclock.StragglerTail{Lo: 0.5, Hi: 2, TailProb: 0.4, TailFactor: 16, Seed: 5},
		Concurrency: 8,
		Buffer:      4,
	}, 1)
	srv.Run(nil)
	if got, want := srv.InFlight(), 8-4; got != want {
		t.Fatalf("in-flight after run = %d, want %d", got, want)
	}
	if n := srv.store.Live(); n > 8 {
		t.Fatalf("version store retains %d versions; in-flight jobs can reference at most 8", n)
	}
	if n := srv.store.FreeCount(); n > 16 {
		t.Fatalf("version free pool grew unboundedly: %d buffers", n)
	}
}

// Async accounting: every fold comes from a dispatched client, and every
// broadcast byte belongs to a dispatch — a refill draw charges nothing until
// its clients are actually sent the model.
func TestAsyncDispatchAccounting(t *testing.T) {
	srv := asyncFixtureServer(t, FedAvg{}, AsyncConfig{
		Latency: simclock.Uniform{Lo: 0.5, Hi: 2, Seed: 9},
	}, 1)
	folded := 0
	var down int64
	srv.Run(func(s RoundStats) {
		folded += len(s.Sampled)
		down += s.BytesDown
	})
	if folded != srv.Cfg.Rounds*srv.Async.Buffer {
		t.Fatalf("folded %d results, want %d", folded, srv.Cfg.Rounds*srv.Async.Buffer)
	}
	if want := srv.wb * int64(srv.seq); down != want {
		t.Fatalf("broadcast %d bytes over %d dispatches, want %d", down, srv.seq, want)
	}
	for _, p := range srv.Global.Params {
		if p.HasNaN() {
			t.Fatal("NaN weights after the async run")
		}
	}
}

// Race coverage for the async window: two replicas, each with a frozen
// forward budget of 4, train steps while the calling goroutine folds
// completions. Run with -race in CI.
func TestAsyncIntraOpParallelRace(t *testing.T) {
	srv := asyncFixtureServer(t, FedAvg{}, AsyncConfig{
		Staleness:   PolynomialStaleness{Alpha: 0.5},
		Latency:     simclock.StragglerTail{Lo: 0.5, Hi: 2, TailProb: 0.3, TailFactor: 8, Seed: 3},
		Concurrency: 8,
		Buffer:      4,
	}, 2)
	if len(srv.nets) != 2 {
		t.Fatalf("%d replicas at Workers = 2", len(srv.nets))
	}
	for _, net := range srv.nets {
		net.SetIntraOp(4)
	}
	srv.Run(nil)
	for _, p := range srv.Global.Params {
		if p.HasNaN() {
			t.Fatal("NaN weights from the two-replica async run")
		}
	}
}

func TestNewAsyncServerValidation(t *testing.T) {
	perDevice := fixtureData(8, 1)
	clients, _ := BuildPopulation(perDevice, []int{1, 1}, 1)
	cfg := Config{Rounds: 2, ClientsPerRound: 2, BatchSize: 4, LocalEpochs: 1, LR: 0.1, Seed: 1, Workers: 1}
	builder := fixtureBuilder(1)
	loss := nn.SoftmaxCrossEntropy{}

	// Every strategy aggregates asynchronously.
	for _, strat := range allStrategies() {
		if _, err := NewAsyncServer(cfg, builder, loss, strat, clients, AsyncConfig{}); err != nil {
			t.Fatalf("%s rejected by the async server: %v", strat.Name(), err)
		}
	}
	// A window larger than the in-flight set could never fill.
	if _, err := NewAsyncServer(cfg, builder, loss, FedAvg{}, clients, AsyncConfig{Concurrency: 2, Buffer: 4}); err == nil {
		t.Fatal("Buffer > Concurrency must be rejected")
	}
	if _, err := NewAsyncServer(cfg, builder, loss, FedAvg{}, clients, AsyncConfig{Buffer: -1}); err == nil {
		t.Fatal("negative buffer must be rejected")
	}
	if _, err := NewAsyncServer(cfg, builder, loss, FedAvg{}, nil, AsyncConfig{}); err == nil {
		t.Fatal("empty population must be rejected")
	}
	bad := cfg
	bad.ClientsPerRound = 50
	if _, err := NewAsyncServer(bad, builder, loss, FedAvg{}, clients, AsyncConfig{}); err == nil {
		t.Fatal("K > N must be rejected")
	}
	// Defaults resolve: K-sized window, depth-1 pipeline, no discount.
	srv, err := NewAsyncServer(cfg, builder, loss, FedAvg{}, clients, AsyncConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if srv.Async.Buffer != 2 || srv.Async.Concurrency != 2 {
		t.Fatalf("defaults not resolved: %+v", srv.Async)
	}
	if srv.Async.Staleness.Weight(3) != 1 {
		t.Fatal("default policy must not discount")
	}
}

// A staleness discount of 0 discards the result, so the server must not pay
// local training for it. The skip has to be invisible: the global model
// stays bit-identical to its initial state (no window can update at all-zero
// weight), the version never bumps, and — because client RNG is a pure
// function of (client, version) — the sampling stream advances exactly as it
// does when training runs, which a C=1 twin run pins down.
// constantStaleness weighs every result C regardless of staleness (FedAsync's
// "constant" policy); C = 0 discards them all.
type constantStaleness struct{ C float64 }

func (p constantStaleness) Name() string       { return fmt.Sprintf("const(%g)", p.C) }
func (p constantStaleness) Weight(int) float64 { return p.C }

func TestAsyncZeroDiscountSkipsTraining(t *testing.T) {
	mk := func(c float64) (*AsyncServer, []RoundStats) {
		srv := asyncFixtureServer(t, FedAvg{}, AsyncConfig{
			Staleness: constantStaleness{C: c},
			Latency:   simclock.Uniform{Lo: 0.5, Hi: 2, Seed: 9},
		}, 1)
		var stats []RoundStats
		srv.Run(func(s RoundStats) { stats = append(stats, s) })
		return srv, stats
	}

	zeroSrv := asyncFixtureServer(t, FedAvg{}, AsyncConfig{
		Staleness: constantStaleness{C: 0},
		Latency:   simclock.Uniform{Lo: 0.5, Hi: 2, Seed: 9},
	}, 1)
	initial := zeroSrv.Global.Clone()
	var zeroStats []RoundStats
	zeroSrv.Run(func(s RoundStats) { zeroStats = append(zeroStats, s) })

	requireBitIdentical(t, zeroSrv.Global, initial, "zero-discount global")
	if zeroSrv.Version != 0 {
		t.Fatalf("zero-discount run bumped version to %d", zeroSrv.Version)
	}

	_, oneStats := mk(1)
	if len(zeroStats) != len(oneStats) {
		t.Fatalf("window counts differ: %d vs %d", len(zeroStats), len(oneStats))
	}
	for i := range zeroStats {
		zs, os := zeroStats[i], oneStats[i]
		if zs.Skipped != zeroSrv.Async.Buffer {
			t.Fatalf("window %d skipped %d folds, want all %d", i, zs.Skipped, zeroSrv.Async.Buffer)
		}
		if zs.TotalEpochs != 0 {
			t.Fatalf("window %d claims %d training epochs despite skipping", i, zs.TotalEpochs)
		}
		if os.Skipped != 0 {
			t.Fatalf("window %d of the C=1 run skipped %d folds", i, os.Skipped)
		}
		// The sampling RNG stream must be unperturbed by the skip: both runs
		// draw the same clients and account the same bytes in the same
		// windows.
		if len(zs.Sampled) != len(os.Sampled) {
			t.Fatalf("window %d sampled %d vs %d clients", i, len(zs.Sampled), len(os.Sampled))
		}
		for j := range zs.Sampled {
			if zs.Sampled[j] != os.Sampled[j] {
				t.Fatalf("window %d sampling stream diverged: %v vs %v", i, zs.Sampled, os.Sampled)
			}
		}
		if zs.BytesDown != os.BytesDown || zs.BytesUp != os.BytesUp {
			t.Fatalf("window %d byte accounting diverged: down %d/%d up %d/%d",
				i, zs.BytesDown, os.BytesDown, zs.BytesUp, os.BytesUp)
		}
		if zs.VirtualTime != os.VirtualTime {
			t.Fatalf("window %d virtual clocks diverged: %v vs %v", i, zs.VirtualTime, os.VirtualTime)
		}
	}
}
