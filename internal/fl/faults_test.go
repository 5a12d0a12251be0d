package fl

import (
	"maps"
	"math"
	"reflect"
	"slices"
	"testing"

	"heteroswitch/internal/faults"
	"heteroswitch/internal/nn"
	"heteroswitch/internal/simclock"
	"heteroswitch/internal/tensor"
)

// corrupting poisons the target client's returned update with a fixed mode
// — the adversarial client of the gate tests, for any strategy.
type corrupting struct {
	Strategy
	target int
	mode   faults.Mode
}

func (c corrupting) LocalUpdate(ctx *ClientContext) ClientResult {
	res := c.Strategy.LocalUpdate(ctx)
	if ctx.Client.ID == c.target {
		corruptUpdate(c.mode, ctx.Global, res.Weights)
	}
	return res
}

// absent is the ground truth the gate must reproduce: the target client
// trains like everyone else, but its result never reaches a fold — i.e. the
// client's update never happened, while the sampling and latency streams
// stay untouched.
type absent struct {
	Strategy
	target int
}

func (a absent) NewAccumulator(global nn.Weights, cfg Config) Accumulator {
	return absentAccumulator{a.Strategy.NewAccumulator(global, cfg), a.target}
}

type absentAccumulator struct {
	Accumulator
	target int
}

func (a absentAccumulator) Fold(r ClientResult, scale float64) {
	if r.ClientID != a.target {
		a.Accumulator.Fold(r, scale)
	}
}

// requireScaffoldUntouchedBy checks that SCAFFOLD kept no trace of the target
// client's rejected updates: its control variate is still the zero it was
// created as, nothing is left staged, and the server variate equals the
// absent-client run's bit for bit. A no-op for other strategies.
func requireScaffoldUntouchedBy(t *testing.T, ref, got Strategy, target int) {
	t.Helper()
	sc, ok := got.(*Scaffold)
	if !ok {
		return
	}
	requireBitIdentical(t, ref.(*Scaffold).c, sc.c, "server control variate")
	var others float64
	for id, ck := range sc.clients {
		var normSq float64
		for _, p := range ck.Params {
			normSq += l2NormSq(p)
		}
		if id == target && normSq != 0 {
			t.Fatalf("rejected updates moved client %d's control variate (|c_k|² = %g)", id, normSq)
		}
		others += normSq
	}
	if others == 0 {
		t.Fatal("no honest client ever committed a control variate; fixture broken")
	}
	if len(sc.pending) != 0 {
		t.Fatalf("%d control-variate steps still staged after the run", len(sc.pending))
	}
}

// gateServer is fixtureServer with a config hook (fault model, gate, paths).
func gateServer(t *testing.T, strat Strategy, mutate func(*Config)) *Server {
	t.Helper()
	perDevice := fixtureData(24, 3)
	clients, err := BuildPopulation(perDevice, []int{3, 3}, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Rounds: 12, ClientsPerRound: 4, BatchSize: 4, LocalEpochs: 1,
		LR: 0.2, Seed: 11, Workers: 2,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := NewServer(cfg, fixtureBuilder(5), nn.SoftmaxCrossEntropy{}, strat, clients)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// gateAsyncServer mirrors gateServer on the asynchronous engine.
func gateAsyncServer(t *testing.T, strat Strategy, async AsyncConfig, mutate func(*Config)) *AsyncServer {
	t.Helper()
	perDevice := fixtureData(24, 3)
	clients, err := BuildPopulation(perDevice, []int{3, 3}, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Rounds: 12, ClientsPerRound: 4, BatchSize: 4, LocalEpochs: 1,
		LR: 0.2, Seed: 11, Workers: 1,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := NewAsyncServer(cfg, fixtureBuilder(5), nn.SoftmaxCrossEntropy{}, strat, clients, async)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// The validation-gate contract on the synchronous engine, for every
// strategy: a NaN/Inf/huge-norm delta from one client never perturbs the
// global weights — bit-identical (tol 0) to a run where that client's
// update never happened — and lands in Rejected/BytesWasted instead.
func TestGateRejectsCorruptUpdateSyncEngine(t *testing.T) {
	const target = 2
	for _, mode := range []faults.Mode{faults.NaN, faults.Inf, faults.Blowup} {
		t.Run(mode.String()+"/streaming", func(t *testing.T) {
			for i, strat := range allStrategies() {
				t.Run(strat.Name(), func(t *testing.T) {
					refStrat := allStrategies()[i]
					ref := gateServer(t, absent{refStrat, target}, nil)
					ref.Run(nil)

					srv := gateServer(t, corrupting{strat, target, mode}, func(c *Config) {
						c.MaxDeltaNorm = 50
					})
					sampledTarget, rejected := 0, 0
					var wasted, up int64
					srv.Run(func(st RoundStats) {
						for _, id := range st.Sampled {
							if id == target {
								sampledTarget++
							}
						}
						for _, id := range st.Rejected {
							if id != target {
								t.Fatalf("round %d rejected honest client %d", st.Round, id)
							}
							rejected++
						}
						wasted += st.BytesWasted
						up += st.BytesUp
					})
					if sampledTarget == 0 {
						t.Fatal("target client never sampled; fixture broken")
					}
					if rejected != sampledTarget {
						t.Fatalf("target sampled %d times but rejected %d", sampledTarget, rejected)
					}
					if wasted != int64(rejected)*weightBytes(srv.Global) || wasted > up {
						t.Fatalf("wasted-bytes accounting off: wasted=%d rejected=%d up=%d", wasted, rejected, up)
					}
					requireBitIdentical(t, ref.Global, srv.Global, mode.String())
					requireScaffoldUntouchedBy(t, refStrat, strat, target)
				})
			}
		})
	}
}

// The same contract on the asynchronous engine: corrupted completions are
// gated between training and the fold, tol-0 against the absent-client run.
func TestGateRejectsCorruptUpdateAsyncEngine(t *testing.T) {
	const target = 2
	async := AsyncConfig{
		Staleness:   PolynomialStaleness{Alpha: 0.5},
		Latency:     simclock.Uniform{Lo: 0.5, Hi: 2, Seed: 17},
		Concurrency: 8,
		Buffer:      4,
	}
	for _, mode := range []faults.Mode{faults.NaN, faults.Inf, faults.Blowup} {
		t.Run(mode.String(), func(t *testing.T) {
			for i, strat := range allStrategies() {
				t.Run(strat.Name(), func(t *testing.T) {
					refStrat := allStrategies()[i]
					ref := gateAsyncServer(t, absent{refStrat, target}, async, nil)
					ref.Run(nil)

					srv := gateAsyncServer(t, corrupting{strat, target, mode}, async, func(c *Config) {
						c.MaxDeltaNorm = 50
					})
					sampledTarget, rejected := 0, 0
					srv.Run(func(st RoundStats) {
						for _, id := range st.Sampled {
							if id == target {
								sampledTarget++
							}
						}
						for _, id := range st.Rejected {
							if id != target {
								t.Fatalf("window %d rejected honest client %d", st.Round, id)
							}
							rejected++
						}
					})
					if sampledTarget == 0 || rejected != sampledTarget {
						t.Fatalf("target folded %d times, rejected %d; want equal and > 0", sampledTarget, rejected)
					}
					requireBitIdentical(t, ref.Global, srv.Global, mode.String())
					requireScaffoldUntouchedBy(t, refStrat, strat, target)
				})
			}
		})
	}
}

// With every update corrupted and the gate armed, the global model must
// stay bit-frozen at its initialization: nothing poisoned ever lands.
func TestSyncAllCorruptFreezesGlobal(t *testing.T) {
	m := &faults.Model{Seed: 5, CorruptP: 1, CorruptMode: faults.NaN}
	srv := gateServer(t, FedAvg{}, func(c *Config) {
		c.Faults = m
		c.MaxDeltaNorm = math.Inf(1) // non-finite check only
	})
	before := srv.GlobalNet().Snapshot()
	srv.Run(func(st RoundStats) {
		if len(st.Rejected) != len(st.Sampled) {
			t.Fatalf("round %d: rejected %v, sampled %v; want all rejected",
				st.Round, st.Rejected, st.Sampled)
		}
		if st.BytesWasted != st.BytesUp {
			t.Fatalf("round %d: wasted %d != uploaded %d", st.Round, st.BytesWasted, st.BytesUp)
		}
	})
	requireBitIdentical(t, before, srv.Global, "all-corrupt freeze")
}

// finiteFolds is the witness of the gate's non-finite check: it fails the
// test when an update carrying a NaN or ±Inf element reaches a fold.
type finiteFolds struct {
	Strategy
	t *testing.T
}

func (f finiteFolds) NewAccumulator(global nn.Weights, cfg Config) Accumulator {
	return finiteFoldsAccumulator{f.Strategy.NewAccumulator(global, cfg), f.t}
}

type finiteFoldsAccumulator struct {
	Accumulator
	t *testing.T
}

func (a finiteFoldsAccumulator) Fold(r ClientResult, scale float64) {
	if !weightsFinite(r.Weights) {
		a.t.Errorf("client %d: a non-finite update passed the gate and reached the fold", r.ClientID)
	}
	a.Accumulator.Fold(r, scale)
}

func weightsFinite(w nn.Weights) bool {
	for _, ts := range [][]*tensor.Tensor{w.Params, w.States} {
		for _, t := range ts {
			for _, v := range t.Data() {
				if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
					return false
				}
			}
		}
	}
	return true
}

// MaxDeltaNorm = +Inf is what -faults arms by default: the non-finite check
// alone. An update with a +Inf element has ss = +Inf, and +Inf <= +Inf is
// true, so the bound comparison by itself admitted it: the gate must require a
// finite ss. On both engines, under inf and mix corruption, no non-finite
// update reaches a fold, the global stays finite, and — where the test can
// replay the draws, on the barrier server, whose corruption key is the round
// — every NaN or Inf draw is in Rejected.
func TestGateRejectsInfUnderInfiniteBound(t *testing.T) {
	for _, mode := range []faults.Mode{faults.Inf, faults.Mix} {
		m := &faults.Model{Seed: 5, CorruptP: 0.5, CorruptMode: mode}
		arm := func(c *Config) {
			c.Faults = m
			c.MaxDeltaNorm = math.Inf(1)
		}
		t.Run(mode.String()+"/sync", func(t *testing.T) {
			srv := gateServer(t, finiteFolds{FedAvg{}, t}, arm)
			poisoned := 0
			srv.Run(func(st RoundStats) {
				for _, id := range st.Sampled {
					if d := m.Corruption(id, st.Round); d == faults.NaN || d == faults.Inf {
						poisoned++
						if !slices.Contains(st.Rejected, id) {
							t.Errorf("round %d: client %d drew %v and was admitted (rejected %v)", st.Round, id, d, st.Rejected)
						}
					}
				}
			})
			if poisoned == 0 {
				t.Fatal("no update drew a non-finite corruption; fixture broken")
			}
			if !weightsFinite(srv.Global) {
				t.Fatal("global weights are not finite")
			}
		})
		t.Run(mode.String()+"/async", func(t *testing.T) {
			srv := gateAsyncServer(t, finiteFolds{FedAvg{}, t}, AsyncConfig{
				Staleness:   PolynomialStaleness{Alpha: 0.5},
				Latency:     simclock.Uniform{Lo: 0.5, Hi: 2, Seed: 17},
				Concurrency: 8,
				Buffer:      4,
			}, arm)
			rejected := 0
			srv.Run(func(st RoundStats) { rejected += len(st.Rejected) })
			if rejected == 0 {
				t.Fatal("nothing was rejected; fixture broken")
			}
			if !weightsFinite(srv.Global) {
				t.Fatal("global weights are not finite")
			}
		})
	}
}

// SCAFFOLD commits a client's control-variate step only when its update is
// admitted: under a fault model that corrupts every update, on either
// engine, the gate rejects everything and neither c, any c_k, nor the staging
// area keeps a trace — and the global stays frozen.
func TestScaffoldRejectedUpdatesLeaveNoTrace(t *testing.T) {
	m, err := faults.ParseSpec("corrupt:1,nan", 5)
	if err != nil {
		t.Fatal(err)
	}
	arm := func(c *Config) {
		c.Faults = m
		c.MaxDeltaNorm = math.Inf(1) // non-finite check only
	}
	check := func(engine string, sc *Scaffold, before, after nn.Weights) {
		t.Helper()
		requireBitIdentical(t, before, after, engine+" all-corrupt freeze")
		if len(sc.clients) == 0 {
			t.Fatalf("%s: no client ever trained; fixture broken", engine)
		}
		for _, w := range append([]nn.Weights{sc.c}, slices.Collect(maps.Values(sc.clients))...) {
			for _, p := range w.Params {
				if l2NormSq(p) != 0 {
					t.Fatalf("%s: a rejected update moved a control variate", engine)
				}
			}
		}
		if len(sc.pending) != 0 {
			t.Fatalf("%s: %d rejected control-variate steps still staged", engine, len(sc.pending))
		}
	}

	sc := &Scaffold{TotalClients: 6}
	sync := gateServer(t, sc, arm)
	before := sync.Global.Clone()
	sync.Run(nil)
	check("sync", sc, before, sync.Global)

	sc = &Scaffold{TotalClients: 6}
	async := gateAsyncServer(t, sc, AsyncConfig{
		Latency:     simclock.Uniform{Lo: 0.5, Hi: 2, Seed: 17},
		Concurrency: 8,
		Buffer:      4,
	}, arm)
	before = async.Global.Clone()
	async.Run(nil)
	check("async", sc, before, async.Global)
	if async.version != 0 {
		t.Fatalf("async installed %d versions from rejected updates", async.version)
	}
}

// Engine/fault-model compatibility is enforced at construction.
func TestFaultModelEngineRequirements(t *testing.T) {
	perDevice := fixtureData(24, 3)
	clients, err := BuildPopulation(perDevice, []int{3, 3}, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Rounds: 2, ClientsPerRound: 4, BatchSize: 4, LocalEpochs: 1,
		LR: 0.2, Seed: 11, Workers: 1,
	}
	crash, err := faults.ParseSpec("crash:0.5", 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = crash
	if _, err := NewServer(cfg, fixtureBuilder(5), nn.SoftmaxCrossEntropy{}, FedAvg{}, clients); err == nil {
		t.Fatal("sync server accepted a crash fault model")
	}
	if _, err := NewAsyncServer(cfg, fixtureBuilder(5), nn.SoftmaxCrossEntropy{}, FedAvg{}, clients, AsyncConfig{}); err == nil {
		t.Fatal("async server accepted crash faults without a timeout")
	}
	if _, err := NewAsyncServer(cfg, fixtureBuilder(5), nn.SoftmaxCrossEntropy{}, FedAvg{}, clients,
		AsyncConfig{Timeout: 5}); err != nil {
		t.Fatalf("async server rejected crash faults with a timeout: %v", err)
	}
	// Corruption-only models run on the sync engine.
	cfg.Faults = &faults.Model{Seed: 1, CorruptP: 0.5, CorruptMode: faults.Mix}
	if _, err := NewServer(cfg, fixtureBuilder(5), nn.SoftmaxCrossEntropy{}, FedAvg{}, clients); err != nil {
		t.Fatalf("sync server rejected a corruption-only model: %v", err)
	}
}

// A full chaos configuration — crash, transient failure, corruption, churn,
// timeouts with backoff, the staleness drop rule, and the gate — must be
// bit-reproducible run-to-run: weights and the entire stats stream,
// including every fault counter. Both runs train on two replicas, so the CI
// race lane covers the parallel window under every fault path; a third run
// on one replica must match them.
func TestAsyncChaosBitReproducible(t *testing.T) {
	mk := func(workers int) (*AsyncServer, []RoundStats) {
		m, err := faults.ParseSpec("crash:0.25+flaky:0.3,1+corrupt:0.3,mix+churn:30,0.5", 99)
		if err != nil {
			t.Fatal(err)
		}
		srv := gateAsyncServer(t, FedAvg{}, AsyncConfig{
			Staleness:    PolynomialStaleness{Alpha: 0.5},
			Latency:      simclock.Uniform{Lo: 0.5, Hi: 2, Seed: 17},
			Concurrency:  8,
			Buffer:       4,
			Timeout:      5,
			RetryBackoff: 0.5,
			MaxAttempts:  2,
			MaxStaleness: 2,
		}, func(c *Config) {
			c.Faults = m
			c.MaxDeltaNorm = 50
			c.Workers = workers
		})
		var stats []RoundStats
		srv.Run(func(s RoundStats) { stats = append(stats, s) })
		return srv, stats
	}
	a, sa := mk(2)
	b, sb := mk(2)
	c, sc := mk(1)
	requireBitIdentical(t, a.Global, b.Global, "chaos reproducibility")
	requireBitIdentical(t, a.Global, c.Global, "chaos at one replica")
	if !reflect.DeepEqual(sa, sb) || !reflect.DeepEqual(sa, sc) {
		t.Fatal("chaos stats streams diverged between identical runs")
	}
	var reissues, failed, rejected, deferred, staleDropped int
	var wasted int64
	for _, st := range sa {
		reissues += st.Reissues
		failed += st.Failed
		rejected += len(st.Rejected)
		deferred += st.Deferred
		staleDropped += st.StaleDropped
		wasted += st.BytesWasted
	}
	if reissues == 0 || failed == 0 || rejected == 0 || deferred == 0 {
		t.Fatalf("chaos config did not exercise all fault paths: reissues=%d failed=%d rejected=%d deferred=%d staleDropped=%d",
			reissues, failed, rejected, deferred, staleDropped)
	}
	if wasted == 0 {
		t.Fatal("chaos run wasted no bytes despite rejections")
	}
	// Every folded window still fills completely.
	for _, st := range sa {
		if len(st.Sampled) != 4 {
			t.Fatalf("window %d folded %d results, want 4", st.Round, len(st.Sampled))
		}
	}
}

// The MaxStaleness drop rule's twin-run contract: against the no-drop
// server, the sampling/dropout RNG streams, the virtual clock, and the
// byte totals stay pinned — only the fold outcomes change, with dropped
// uploads accounted as wasted and their training skipped.
func TestAsyncMaxStalenessTwinRun(t *testing.T) {
	base := AsyncConfig{
		Staleness:   PolynomialStaleness{Alpha: 0.5},
		Latency:     simclock.StragglerTail{Lo: 0.5, Hi: 2, TailProb: 0.3, TailFactor: 8, Seed: 17},
		Concurrency: 8,
		Buffer:      4,
	}
	drop := base
	drop.MaxStaleness = 1

	run := func(async AsyncConfig) []RoundStats {
		srv := gateAsyncServer(t, FedAvg{}, async, nil)
		var stats []RoundStats
		srv.Run(func(s RoundStats) { stats = append(stats, s) })
		return stats
	}
	plain := run(base)
	dropped := run(drop)

	totalStale := 0
	for i := range plain {
		p, d := plain[i], dropped[i]
		if !reflect.DeepEqual(p.Sampled, d.Sampled) {
			t.Fatalf("window %d: sampling streams diverged under the drop rule", i)
		}
		if p.VirtualTime != d.VirtualTime {
			t.Fatalf("window %d: virtual clocks diverged: %g vs %g", i, p.VirtualTime, d.VirtualTime)
		}
		if p.BytesDown != d.BytesDown || p.BytesUp != d.BytesUp {
			t.Fatalf("window %d: byte totals diverged", i)
		}
		if d.TotalEpochs != p.TotalEpochs-d.StaleDropped {
			t.Fatalf("window %d: dropped results still paid training: %d vs %d (dropped %d)",
				i, d.TotalEpochs, p.TotalEpochs, d.StaleDropped)
		}
		if wb := d.BytesUp / 4; d.StaleDropped > 0 && d.BytesWasted != int64(d.StaleDropped)*wb {
			t.Fatalf("window %d: wasted %d bytes for %d dropped results (wb %d)",
				i, d.BytesWasted, d.StaleDropped, wb)
		}
		totalStale += d.StaleDropped
	}
	if totalStale == 0 {
		t.Fatal("drop rule never fired; straggler config too tame")
	}
}

// Timeout reissue without any fault model: straggler latencies overrun the
// deadline, the job is redispatched with exponential backoff, and the whole
// schedule is bit-reproducible.
func TestAsyncTimeoutReissueDeterministic(t *testing.T) {
	run := func() (*AsyncServer, []RoundStats) {
		srv := gateAsyncServer(t, FedAvg{}, AsyncConfig{
			Staleness:    PolynomialStaleness{Alpha: 0.5},
			Latency:      simclock.StragglerTail{Lo: 0.5, Hi: 2, TailProb: 0.3, TailFactor: 8, Seed: 17},
			Concurrency:  8,
			Buffer:       4,
			Timeout:      3,
			RetryBackoff: 0.25,
			MaxAttempts:  3,
		}, nil)
		var stats []RoundStats
		srv.Run(func(s RoundStats) { stats = append(stats, s) })
		return srv, stats
	}
	a, sa := run()
	b, sb := run()
	requireBitIdentical(t, a.Global, b.Global, "timeout reissue reproducibility")
	if !reflect.DeepEqual(sa, sb) {
		t.Fatal("timeout stats streams diverged between identical runs")
	}
	reissues := 0
	for _, st := range sa {
		reissues += st.Reissues
		if len(st.Sampled) != 4 {
			t.Fatalf("window %d folded %d results, want 4", st.Round, len(st.Sampled))
		}
		if st.Rejected != nil || st.StaleDropped != 0 {
			t.Fatalf("window %d: gate/drop fired without faults: %+v", st.Round, st)
		}
	}
	if reissues == 0 {
		t.Fatal("straggler tail never overran the timeout; config too tame")
	}
}
