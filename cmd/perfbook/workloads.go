package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"heteroswitch/internal/core"
	"heteroswitch/internal/dataset"
	"heteroswitch/internal/experiments"
	"heteroswitch/internal/faults"
	"heteroswitch/internal/fl"
	"heteroswitch/internal/frand"
	"heteroswitch/internal/models"
	"heteroswitch/internal/nn"
	"heteroswitch/internal/serve"
	"heteroswitch/internal/simclock"
	"heteroswitch/internal/tensor"
)

// Every workload runs the program with 2 client workers and a total
// intra-op budget of 2, set explicitly: experiments.DefaultOptions resolves
// to NumCPU-1 = 1 worker on the 2-core reference box.
const (
	benchWorkers = 2
	benchIntraOp = 2
	// samplingSeed is fl.Config.Seed, the server's own client-sampling
	// stream. It is configuration of the program, not a generated input: the
	// run's seed changes scenes, captures, partitions, initial weights, banks
	// and the arrival, latency and fault models, while the sequence of
	// sampled client indices — and so the work of each round — stays the
	// same, which is what lets runs on different seeds be compared.
	samplingSeed = 20240513
)

// sizes holds the fixed operation count of one pass of every workload. A
// run repeats whole passes until its time budget is spent, so the counts —
// and with them every digest and exact-repeat count — do not depend on how
// fast the machine is.
type sizes struct {
	PerClassTrain int `json:"paper_table4.per_class_train"`
	PerClassTest  int `json:"paper_table4.per_class_test"`
	T4Clients     int `json:"paper_table4.clients"`
	T4K           int `json:"paper_table4.k"`
	T4Rounds      int `json:"paper_table4.rounds_per_strategy"`

	AggClients   int `json:"agg.clients"`
	AggK         int `json:"agg_sync_wide.k"`
	SyncRounds   int `json:"agg_sync_wide.rounds"`
	AsyncBuffer  int `json:"agg_async_chaos.buffer"`
	AsyncConc    int `json:"agg_async_chaos.concurrency"`
	AsyncWindows int `json:"agg_async_chaos.windows"`

	WallBank         int `json:"serve_wall.bank"`
	WallRequests     int `json:"serve_wall.requests_per_client"`
	WallPublishEvery int `json:"serve_wall.publish_every"`

	SimRequests int `json:"serve_sim.requests_per_call"`
	SimCalls    int `json:"serve_sim.calls"`
}

// lossCheckRounds is how many rounds per strategy it takes for
// paper_table4's training loss to fall on every seed; shorter arms (the
// smoke sizes) skip that check.
const lossCheckRounds = 6

// fullSizes is sized on the reference box (2 vCPU Xeon @ 2.1 GHz, Go 1.24)
// so that a pass of paper_table4 takes about 2.7 s and a pass of every other
// workload between 0.3 s and 0.5 s. A 15 s run then repeats every call
// thirty times or more (paper_table4: five times), and the shortest of those
// repeats is what the run reports.
func fullSizes() sizes {
	return sizes{
		PerClassTrain: 8, PerClassTest: 2, T4Clients: 60, T4K: 10, T4Rounds: lossCheckRounds,
		AggClients: 1024, AggK: 512, SyncRounds: 10,
		AsyncBuffer: 256, AsyncConc: 512, AsyncWindows: 10,
		WallBank: 64, WallRequests: 1500, WallPublishEvery: 500,
		SimRequests: 100000, SimCalls: 5,
	}
}

// smokeSizes keeps every code path of fullSizes, and every check but the
// falling loss, at a small fraction of its operation count (serve_sim scales
// its calls, not its Requests, so both shedding mechanisms still fire).
func smokeSizes() sizes {
	return sizes{
		PerClassTrain: 2, PerClassTest: 1, T4Clients: 60, T4K: 10, T4Rounds: 2,
		AggClients: 1024, AggK: 512, SyncRounds: 2,
		AsyncBuffer: 256, AsyncConc: 512, AsyncWindows: 2,
		WallBank: 64, WallRequests: 100, WallPublishEvery: 20,
		SimRequests: 100000, SimCalls: 1,
	}
}

// passResult is what one fixed-size pass over a workload reports.
type passResult struct {
	// callMs is the wall time of every timed call, in ms. Calls run one
	// after another, or — with lanes > 1 — in that many concurrent sequences
	// of equal length, stored one sequence after the other.
	callMs    []float64
	lanes     int
	ops       float64 // operations the timed calls completed
	wall      float64 // the whole pass in seconds, untimed parts included; set by the caller
	attempted int     // timed calls whose output was checked
	failed    int     // of those, calls that failed their check
	// digest must repeat exactly on every pass of a run: it covers the
	// final weights or reports and every seeded count.
	digest string
	// layer holds the per-layer metrics this pass can supply: seeded counts
	// and allocation figures on every pass, span-derived ones on a traced
	// pass.
	layer map[string]float64
	err   error
}

type workload interface {
	name() string
	// setup generates the inputs from seed, builds the program's servers
	// and warms them up. It may be called again to time another set-up.
	setup(seed uint64, tr *tracer) error
	// pass runs the fixed operation count once; tr is nil with tracing off.
	pass(tr *tracer) passResult
}

func newWorkloads(sz sizes) []workload {
	return []workload{
		&paperTable4{sz: sz},
		&aggSync{sz: sz},
		&aggAsync{sz: sz},
		&serveWall{sz: sz},
		&serveSim{sz: sz},
	}
}

// updateSpans records one span per LocalUpdate under the RunRound span in
// flight, laned by ctx.Net so per-worker sums exist. A nil *updateSpans
// records nothing.
type updateSpans struct {
	tr     *tracer
	layer  string
	parent atomic.Int64
	mu     sync.Mutex
	lanes  map[*nn.Network]int
}

func newUpdateSpans(tr *tracer, layer string) *updateSpans {
	if tr == nil {
		return nil
	}
	return &updateSpans{tr: tr, layer: layer, lanes: map[*nn.Network]int{}}
}

func (u *updateSpans) setParent(id int) {
	if u != nil {
		u.parent.Store(int64(id))
	}
}

func (u *updateSpans) begin(ctx *fl.ClientContext) int {
	if u == nil {
		return -1
	}
	u.mu.Lock()
	lane, ok := u.lanes[ctx.Net]
	if !ok {
		lane = len(u.lanes)
		u.lanes[ctx.Net] = lane
	}
	u.mu.Unlock()
	return u.tr.begin("LocalUpdate", u.layer, int(u.parent.Load()), ctx.Round, lane)
}

func (u *updateSpans) end(id int) {
	if u != nil {
		u.tr.end(id)
	}
}

// The traced strategy wrappers embed the concrete strategy and override only
// LocalUpdate, so the streaming capabilities of the embedded type are
// promoted and the server takes the same aggregation path as without them.
type tracedFedAvg struct {
	fl.FedAvg
	u *updateSpans
}

func (s tracedFedAvg) LocalUpdate(ctx *fl.ClientContext) fl.ClientResult {
	id := s.u.begin(ctx)
	defer s.u.end(id)
	return s.FedAvg.LocalUpdate(ctx)
}

type tracedHeteroSwitch struct {
	*core.HeteroSwitch
	u *updateSpans
}

func (s tracedHeteroSwitch) LocalUpdate(ctx *fl.ClientContext) fl.ClientResult {
	id := s.u.begin(ctx)
	defer s.u.end(id)
	return s.HeteroSwitch.LocalUpdate(ctx)
}

type tracedQFedAvg struct {
	*fl.QFedAvg
	u *updateSpans
}

func (s tracedQFedAvg) LocalUpdate(ctx *fl.ClientContext) fl.ClientResult {
	id := s.u.begin(ctx)
	defer s.u.end(id)
	return s.QFedAvg.LocalUpdate(ctx)
}

// stubTrainer replaces local training with one deterministic sweep
// w -= s·w over the parameters, s a function of client id and round, so a
// round's cost is the aggregation engine's: sampling, weight load,
// snapshot, fold, merge, finalize and stats.
type stubTrainer struct {
	fl.FedAvg
	u *updateSpans
}

func (s stubTrainer) LocalUpdate(ctx *fl.ClientContext) fl.ClientResult {
	id := s.u.begin(ctx)
	defer s.u.end(id)
	step := float32(1e-3 * (1 + float64((ctx.Client.ID*31+ctx.Round*17)%64)/64))
	for _, p := range ctx.Net.Params() {
		d := p.W.Data()
		for i, v := range d {
			d[i] = v - step*v
		}
	}
	loss := 1 / float64(1+ctx.Round)
	return fl.ClientResult{
		ClientID: ctx.Client.ID, DeviceIdx: ctx.Client.Device,
		NumSamples: ctx.Client.Data.Len(),
		Weights:    ctx.SnapshotWeights(),
		TrainLoss:  loss, InitLoss: 2 * loss,
	}
}

// engineSelf applies the blocking-path rule round by round: a round's
// engine time is its wall time minus the largest per-worker sum of
// LocalUpdate time under it (the maximum per round, not of whole-run sums,
// which alternating shard imbalance would inflate).
func engineSelf(spans []span, roundName string) (engine, wall time.Duration, updates int, updateUs []float64) {
	perLane := map[int]map[int]time.Duration{}
	for _, s := range spans {
		if s.Name != "LocalUpdate" || s.Parent < 0 {
			continue
		}
		if perLane[s.Parent] == nil {
			perLane[s.Parent] = map[int]time.Duration{}
		}
		perLane[s.Parent][s.Lane] += s.dur()
		updates++
		updateUs = append(updateUs, us(s.dur()))
	}
	for i, s := range spans {
		if s.Name != roundName {
			continue
		}
		var blocking time.Duration
		for _, d := range perLane[i] {
			blocking = max(blocking, d)
		}
		wall += s.dur()
		engine += s.dur() - blocking
	}
	return engine, wall, updates, updateUs
}

func spanSeconds(spans []span, name string) float64 {
	var d time.Duration
	for _, s := range spans {
		if s.Name == name {
			d += s.dur()
		}
	}
	return d.Seconds()
}

// memCounters reads the allocation counters; call it outside timed calls
// (ReadMemStats stops the world).
func memCounters() (bytes, mallocs uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc, m.Mallocs
}

// paper_table4 ---------------------------------------------------------------

// paperTable4 is the paper's main evaluation as its users run it: the nine
// Table-1 devices capture shared scenes, a market-share population trains
// TinyMobileNetV3 under FedAvg, HeteroSwitch and q-FedAvg on fl.Server, and
// each global model is evaluated per device.
type paperTable4 struct {
	sz      sizes
	dd      *experiments.DeviceData
	builder models.Builder
	pop     []*fl.Client
	samples map[int]int // client id → local sample count
	// setupLayer holds the per-layer metrics of a traced set-up.
	setupLayer map[string]float64
}

func (w *paperTable4) name() string { return "paper_table4" }

func (w *paperTable4) cfg() fl.Config {
	return fl.Config{
		Rounds: w.sz.T4Rounds, ClientsPerRound: w.sz.T4K, BatchSize: 10, LocalEpochs: 1,
		LR: 0.1, Seed: samplingSeed, Workers: benchWorkers, IntraOp: benchIntraOp,
	}
}

func (w *paperTable4) setup(seed uint64, tr *tracer) error {
	opts := experiments.DefaultOptions()
	opts.Seed, opts.Workers, opts.IntraOp = seed, benchWorkers, benchIntraOp

	id := tr.begin("experiments.BuildDeviceData", "dataset", -1, 0, 0)
	t0 := time.Now()
	dd, err := experiments.BuildDeviceData(opts, w.sz.PerClassTrain, w.sz.PerClassTest, dataset.ModeProcessed)
	capture := time.Since(t0)
	tr.end(id)
	if err != nil {
		return err
	}
	w.dd = dd
	w.builder = experiments.MobileNetBuilder(seed, dd.Classes)

	id = tr.begin("fl.BuildPopulation", "fl", -1, 0, 0)
	t0 = time.Now()
	w.pop, err = fl.BuildPopulation(dd.Train, experiments.MarketShareCounts(dd, w.sz.T4Clients), seed)
	population := time.Since(t0)
	tr.end(id)
	if err != nil {
		return err
	}
	images := (w.sz.PerClassTrain + w.sz.PerClassTest) * dd.Classes * len(dd.Profiles)
	w.setupLayer = map[string]float64{
		"dataset.capture_images_per_s": float64(images) / capture.Seconds(),
		"fl.build_population_ms":       ms(population),
	}
	w.samples = map[int]int{}
	for _, c := range w.pop {
		w.samples[c.ID] = c.Data.Len()
	}
	// Warm the intra-op worker pool and the batch scratch pools.
	srv, err := fl.NewServer(w.cfg(), w.builder, nn.SoftmaxCrossEntropy{}, fl.FedAvg{}, w.pop)
	if err != nil {
		return err
	}
	srv.RunRound(0)
	return nil
}

func (w *paperTable4) pass(tr *tracer) passResult {
	pr := passResult{layer: map[string]float64{}}
	u := newUpdateSpans(tr, "nn")
	arms := []struct {
		name     string
		strategy fl.Strategy
	}{
		{"fedavg", fl.FedAvg{}},
		{"heteroswitch", core.New()},
		{"qfedavg", &fl.QFedAvg{Q: 1e-6}},
	}
	if tr != nil {
		arms[0].strategy = tracedFedAvg{u: u}
		arms[1].strategy = tracedHeteroSwitch{HeteroSwitch: core.New(), u: u}
		arms[2].strategy = tracedQFedAvg{QFedAvg: &fl.QFedAvg{Q: 1e-6}, u: u}
	}
	mark := tr.mark()
	passStart := time.Now()
	var digest strings.Builder
	armRate := map[string]float64{}
	for _, arm := range arms {
		id := tr.begin("fl.NewServer", "fl", -1, 0, 0)
		srv, err := fl.NewServer(w.cfg(), w.builder, nn.SoftmaxCrossEntropy{}, arm.strategy, w.pop)
		tr.end(id)
		if err != nil {
			pr.err = err
			return pr
		}
		var samples int
		var wall time.Duration
		var first, last float64
		for r := 0; r < w.sz.T4Rounds; r++ {
			id := tr.begin("fl.Server.RunRound", "fl", -1, r, 0)
			u.setParent(id)
			t0 := time.Now()
			st := srv.RunRound(r)
			d := time.Since(t0)
			tr.end(id)
			wall += d
			pr.attempted++
			if !isFinite(st.MeanLoss) || !isFinite(st.MeanInit) || len(st.Sampled) != w.sz.T4K {
				pr.failed++
			}
			n := 0
			for _, cid := range st.Sampled {
				n += w.samples[cid]
			}
			samples += n
			pr.callMs = append(pr.callMs, ms(d))
			if r == 0 {
				first = st.MeanLoss
			}
			last = st.MeanLoss
		}
		if w.sz.T4Rounds >= lossCheckRounds && !(last < first) {
			pr.err = fmt.Errorf("paper_table4/%s: train loss did not fall (%g → %g over %d rounds)", arm.name, first, last, w.sz.T4Rounds)
		}
		net := srv.GlobalNet()
		id = tr.begin("experiments.PerDeviceAccuracies", "metrics", -1, 0, 0)
		acc := experiments.PerDeviceAccuracies(net, w.dd, 16)
		tr.end(id)
		for dev := range w.dd.Profiles {
			if a := acc[dev]; !(a >= 0 && a <= 1) {
				pr.err = fmt.Errorf("paper_table4/%s: device %d accuracy %g outside [0,1]", arm.name, dev, a)
			}
			fmt.Fprintf(&digest, "%.6f,", acc[dev])
		}
		wd, finite := weightsDigest(net.Snapshot())
		if !finite {
			pr.err = fmt.Errorf("paper_table4/%s: non-finite global weights", arm.name)
		}
		fmt.Fprintf(&digest, "%s=%016x;", arm.name, wd)
		pr.ops += float64(samples)
		armRate[arm.name] = float64(samples) / wall.Seconds()
	}
	harness := time.Since(passStart)
	pr.digest = digest.String()

	if tr != nil {
		for k, v := range w.setupLayer {
			pr.layer[k] = v
		}
		spans := tr.since(mark)
		engine, wall, _, updateUs := engineSelf(spans, "fl.Server.RunRound")
		pr.layer["fl.fedavg_samples_per_s"] = armRate["fedavg"]
		pr.layer["fl.qfedavg_samples_per_s"] = armRate["qfedavg"]
		pr.layer["core.heteroswitch_samples_per_s"] = armRate["heteroswitch"]
		pr.layer["core.heteroswitch_vs_fedavg_ratio"] = armRate["heteroswitch"] / armRate["fedavg"]
		pr.layer["fl.local_update_us_p50"] = percentile(updateUs, 0.5)
		pr.layer["fl.train_engine_self_share"] = engine.Seconds() / wall.Seconds()
		pr.layer["fl.new_server_ms"] = 1e3 * spanSeconds(spans, "fl.NewServer") / float64(len(arms))
		// Closure: the spans recorded around the public calls must account
		// for the pass's wall time.
		covered := spanSeconds(spans, "fl.NewServer") + spanSeconds(spans, "fl.Server.RunRound") +
			spanSeconds(spans, "experiments.PerDeviceAccuracies")
		pr.layer["trace.closure_share.paper_table4"] = covered / harness.Seconds()
	}
	return pr
}

// agg_sync_wide / agg_async_chaos ---------------------------------------------

// aggInputs is the cross-device-scale population both aggregation
// workloads share: many clients with one tiny sample each and a
// 68 k-parameter MLP, so a client update costs little beside its
// aggregation.
type aggInputs struct {
	seed    uint64
	pop     []*fl.Client
	builder fl.Builder
}

func newAggInputs(seed uint64, clients int, tr *tracer) aggInputs {
	id := tr.begin("fl.NewClient×N", "fl", -1, 0, 0)
	defer tr.end(id)
	r := frand.New(seed ^ 0xa66)
	pop := make([]*fl.Client, clients)
	for i := range pop {
		ds := &dataset.Dataset{NumClasses: 10}
		ds.Samples = append(ds.Samples, dataset.Sample{X: tensor.Randn(r, 0.5, 1, 16, 16), Label: i % 10})
		pop[i] = fl.NewClient(i, 0, ds, seed)
	}
	return aggInputs{seed: seed, pop: pop, builder: func() *nn.Network {
		br := frand.New(seed ^ 0x3c1)
		return nn.NewNetwork(nn.NewFlatten(), nn.NewDense(br, 256, 256), nn.NewReLU(), nn.NewDense(br, 256, 10))
	}}
}

func (in aggInputs) cfg(k, rounds int) fl.Config {
	return fl.Config{
		Rounds: rounds, ClientsPerRound: k, BatchSize: 1, LocalEpochs: 1,
		LR: 0.1, Seed: samplingSeed, Workers: benchWorkers, IntraOp: benchIntraOp,
	}
}

type aggSync struct {
	sz sizes
	in aggInputs
}

func (w *aggSync) name() string { return "agg_sync_wide" }

func (w *aggSync) setup(seed uint64, tr *tracer) error {
	w.in = newAggInputs(seed, w.sz.AggClients, tr)
	srv, err := fl.NewServer(w.in.cfg(w.sz.AggK, 1), w.in.builder, nn.SoftmaxCrossEntropy{}, stubTrainer{}, w.in.pop)
	if err != nil {
		return err
	}
	srv.RunRound(0)
	return nil
}

func (w *aggSync) pass(tr *tracer) passResult {
	pr := passResult{layer: map[string]float64{}}
	u := newUpdateSpans(tr, "bench")
	mark := tr.mark()
	id := tr.begin("fl.NewServer", "fl", -1, 0, 0)
	srv, err := fl.NewServer(w.in.cfg(w.sz.AggK, w.sz.SyncRounds), w.in.builder, nn.SoftmaxCrossEntropy{}, stubTrainer{u: u}, w.in.pop)
	tr.end(id)
	if err != nil {
		pr.err = err
		return pr
	}
	u.setParent(-1)
	srv.RunRound(0) // warm: accumulators, scratch pool and spare buffer exist from here on
	var sampled int
	var bytesUp int64
	b0, m0 := memCounters()
	for r := 1; r <= w.sz.SyncRounds; r++ {
		id := tr.begin("fl.Server.RunRound", "fl", -1, r, 0)
		u.setParent(id)
		t0 := time.Now()
		st := srv.RunRound(r)
		d := time.Since(t0)
		tr.end(id)
		pr.callMs = append(pr.callMs, ms(d))
		pr.attempted++
		if !isFinite(st.MeanLoss) || !isFinite(st.MeanInit) {
			pr.failed++
		}
		sampled += len(st.Sampled)
		bytesUp += st.BytesUp
	}
	b1, m1 := memCounters()
	updates := w.sz.AggK * w.sz.SyncRounds
	if sampled != updates {
		pr.err = fmt.Errorf("agg_sync_wide: %d clients sampled, want K×rounds = %d", sampled, updates)
	}
	wd, finite := weightsDigest(srv.GlobalNet().Snapshot())
	if !finite {
		pr.err = fmt.Errorf("agg_sync_wide: non-finite global weights")
	}
	pr.digest = fmt.Sprintf("%016x", wd)
	pr.ops = float64(updates)
	pr.layer["fl.bytes_up_per_round"] = float64(bytesUp) / float64(w.sz.SyncRounds)
	if tr == nil {
		pr.layer["fl.sync_allocs_per_update"] = float64(m1-m0) / float64(updates)
		pr.layer["fl.sync_alloc_kb_per_round"] = float64(b1-b0) / 1024 / float64(w.sz.SyncRounds)
	} else {
		engine, engWall, n, _ := engineSelf(tr.since(mark), "fl.Server.RunRound")
		pr.layer["fl.sync_engine_self_us_per_update"] = us(engine) / float64(n)
		pr.layer["fl.sync_engine_self_share"] = engine.Seconds() / engWall.Seconds()
	}
	return pr
}

const chaosSpec = "crash:0.02+flaky:0.05,1+corrupt:0.02,mix+churn:20,0.9"

type aggAsync struct {
	sz     sizes
	in     aggInputs
	faults *faults.Model
}

func (w *aggAsync) name() string { return "agg_async_chaos" }

func (w *aggAsync) newServer(u *updateSpans) (*fl.AsyncServer, error) {
	cfg := w.in.cfg(w.sz.AsyncBuffer, w.sz.AsyncWindows)
	cfg.Faults = w.faults
	cfg.MaxDeltaNorm = 100
	return fl.NewAsyncServer(cfg, w.in.builder, nn.SoftmaxCrossEntropy{}, stubTrainer{u: u}, w.in.pop, fl.AsyncConfig{
		Staleness:    fl.PolynomialStaleness{Alpha: 0.5},
		Latency:      simclock.StragglerTail{Lo: 0.5, Hi: 2, TailProb: 0.15, TailFactor: 8, Seed: w.in.seed ^ 3},
		Concurrency:  w.sz.AsyncConc,
		Buffer:       w.sz.AsyncBuffer,
		Timeout:      6,
		RetryBackoff: 0.5,
		MaxAttempts:  2,
		MaxStaleness: 3,
	})
}

func (w *aggAsync) setup(seed uint64, tr *tracer) error {
	w.in = newAggInputs(seed, w.sz.AggClients, tr)
	var err error
	if w.faults, err = faults.ParseSpec(chaosSpec, seed); err != nil {
		return err
	}
	srv, err := w.newServer(nil)
	if err != nil {
		return err
	}
	srv.RunRound()
	return nil
}

func (w *aggAsync) pass(tr *tracer) passResult {
	pr := passResult{layer: map[string]float64{}}
	u := newUpdateSpans(tr, "bench")
	mark := tr.mark()
	id := tr.begin("fl.NewAsyncServer", "fl", -1, 0, 0)
	srv, err := w.newServer(u)
	tr.end(id)
	if err != nil {
		pr.err = err
		return pr
	}
	u.setParent(-1)
	srv.RunRound() // warm window
	var sampled, reissues, failed, rejected, staleDropped, deferred, skipped int
	var staleness, vtime float64
	b0, m0 := memCounters()
	for r := 1; r <= w.sz.AsyncWindows; r++ {
		id := tr.begin("fl.AsyncServer.RunRound", "fl", -1, r, 0)
		u.setParent(id)
		t0 := time.Now()
		st := srv.RunRound()
		d := time.Since(t0)
		tr.end(id)
		pr.callMs = append(pr.callMs, ms(d))
		pr.attempted++
		if !isFinite(st.MeanLoss) || !isFinite(st.MeanInit) {
			pr.failed++
		}
		sampled += len(st.Sampled)
		reissues += st.Reissues
		failed += st.Failed
		rejected += len(st.Rejected)
		staleDropped += st.StaleDropped
		deferred += st.Deferred
		skipped += st.Skipped
		staleness += st.MeanStaleness
		vtime = st.VirtualTime
	}
	b1, m1 := memCounters()
	folds := w.sz.AsyncBuffer * w.sz.AsyncWindows
	if sampled != folds {
		pr.err = fmt.Errorf("agg_async_chaos: %d results folded, want Buffer×windows = %d", sampled, folds)
	}
	wd, finite := weightsDigest(srv.GlobalNet().Snapshot())
	if !finite {
		pr.err = fmt.Errorf("agg_async_chaos: non-finite global weights")
	}
	pr.ops = float64(folds)
	pr.layer["fl.async_reissues"] = float64(reissues)
	pr.layer["fl.async_failed"] = float64(failed)
	pr.layer["fl.async_rejected"] = float64(rejected)
	pr.layer["fl.async_stale_dropped"] = float64(staleDropped)
	pr.layer["fl.async_deferred"] = float64(deferred)
	pr.layer["fl.async_skipped"] = float64(skipped)
	pr.layer["fl.async_lost_share"] = float64(failed+rejected+staleDropped) / float64(folds)
	pr.layer["fl.async_mean_staleness"] = staleness / float64(w.sz.AsyncWindows)
	pr.layer["fl.async_vtime_end"] = vtime
	pr.digest = fmt.Sprintf("%016x r%d f%d j%d s%d d%d k%d v%.9g", wd, reissues, failed, rejected, staleDropped, deferred, skipped, vtime)
	if tr == nil {
		pr.layer["fl.async_allocs_per_update"] = float64(m1-m0) / float64(folds)
		pr.layer["fl.async_alloc_kb_per_round"] = float64(b1-b0) / 1024 / float64(w.sz.AsyncWindows)
	} else {
		engine, engWall, n, _ := engineSelf(tr.since(mark), "fl.AsyncServer.RunRound")
		pr.layer["fl.async_engine_self_us_per_update"] = us(engine) / float64(n)
		pr.layer["fl.async_engine_self_share"] = engine.Seconds() / engWall.Seconds()
	}
	return pr
}

// serve_wall -------------------------------------------------------------------

// serveWall is the only wall-clock serving entry: two closed-loop clients
// (each waits for its reply before sending the next request) call
// PredictInto on TinyMobileNetV3 while one of them republishes the model.
type serveWall struct {
	sz     sizes
	srv    *serve.Server
	bank   []*tensor.Tensor
	ref    [][]float32 // reference logits per bank entry
	outDim int
	order  [2][]int // per client, the bank index of each request of a pass
}

const wallClients = 2

func (w *serveWall) name() string { return "serve_wall" }

func (w *serveWall) setup(seed uint64, tr *tracer) error {
	build, err := models.BuilderFor(models.ArchMobileNet, seed, 3, 12)
	if err != nil {
		return err
	}
	ref := build()
	id := tr.begin("serve.NewServer", "serve", -1, 0, 0)
	w.srv, err = serve.NewServer(func() *nn.Network { return build() }, ref.Snapshot(),
		serve.Config{Workers: benchWorkers, IntraOp: benchIntraOp})
	tr.end(id)
	if err != nil {
		return err
	}
	r := frand.New(seed ^ 0x1ead)
	w.bank = make([]*tensor.Tensor, w.sz.WallBank)
	w.ref = make([][]float32, w.sz.WallBank)
	for i := range w.bank {
		w.bank[i] = tensor.Randn(r, 0.5, 1, 3, 32, 32)
		// The reference is the layer-by-layer eval forward, not the frozen path.
		w.ref[i] = append([]float32(nil), ref.Forward(w.bank[i], false).Data()...)
	}
	w.outDim = len(w.ref[0])
	for c := range w.order {
		w.order[c] = make([]int, w.sz.WallRequests)
		for i := range w.order[c] {
			w.order[c][i] = r.Intn(w.sz.WallBank)
		}
	}
	// Warm both replicas: arena, frozen fold and packed panels.
	dst := make([]float32, w.outDim)
	for i := 0; i < 64; i++ {
		if _, _, err := w.srv.PredictInto(dst, w.bank[i%len(w.bank)]); err != nil {
			return err
		}
	}
	return nil
}

// matchesRef reports whether got is within 1e-5 (relative past unit
// magnitude) of want with the same argmax — the frozen path's contract.
func matchesRef(got, want []float32) bool {
	gi, wi := 0, 0
	for i := range want {
		if math.Abs(float64(got[i])-float64(want[i])) > 1e-5*math.Max(1, math.Abs(float64(want[i]))) {
			return false
		}
		if got[i] > got[gi] {
			gi = i
		}
		if want[i] > want[wi] {
			wi = i
		}
	}
	return gi == wi
}

func (w *serveWall) pass(tr *tracer) passResult {
	pr := passResult{layer: map[string]float64{}}
	n := w.sz.WallRequests
	var lat [wallClients][]float64
	var failed [wallClients]int
	mark := tr.mark()
	var wg sync.WaitGroup
	start := make(chan struct{})
	for c := 0; c < wallClients; c++ {
		lat[c] = make([]float64, n)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			dst := make([]float32, w.outDim)
			lastVersion := -1
			<-start
			for i, bi := range w.order[c] {
				if c == 0 && i > 0 && i%w.sz.WallPublishEvery == 0 {
					id := tr.begin("serve.Store.Republish", "serve", -1, i, c)
					w.srv.Store().Republish()
					tr.end(id)
				}
				id := tr.begin("serve.PredictInto", "serve", -1, i, c)
				t0 := time.Now()
				v, got, err := w.srv.PredictInto(dst, w.bank[bi])
				d := time.Since(t0)
				tr.end(id)
				lat[c][i] = ms(d)
				if err != nil || got != w.outDim || v < lastVersion || !matchesRef(dst, w.ref[bi]) {
					failed[c]++
				}
				lastVersion = v
			}
		}(c)
	}
	close(start)
	wg.Wait()
	for c := range lat {
		pr.callMs = append(pr.callMs, lat[c]...)
		pr.failed += failed[c]
	}
	pr.attempted = wallClients * n
	pr.ops, pr.lanes = float64(pr.attempted), wallClients
	if live := w.srv.Store().Live(); live != 1 {
		pr.err = fmt.Errorf("serve_wall: %d versions resident after the pass, want 1", live)
	}
	pr.digest = fmt.Sprintf("requests=%d failed=%d", pr.attempted, pr.failed)
	if tr != nil {
		// The first request each client sends after a publish lands on a
		// replica that still holds the old version and pays Ensure (reload +
		// refold + repack).
		spans := tr.since(mark)
		var all, publishUs, postPublishUs []float64
		for _, p := range spans {
			if p.Name != "serve.Store.Republish" {
				continue
			}
			publishUs = append(publishUs, us(p.dur()))
			first := map[int]span{}
			for _, s := range spans {
				f, seen := first[s.Lane]
				if s.Name == "serve.PredictInto" && s.Start >= p.End && (!seen || s.Start < f.Start) {
					first[s.Lane] = s
				}
			}
			for _, s := range first {
				postPublishUs = append(postPublishUs, us(s.dur()))
			}
		}
		for _, s := range spans {
			if s.Name == "serve.PredictInto" {
				all = append(all, us(s.dur()))
			}
		}
		pr.layer["serve.latency_us_p99"] = percentile(all, 0.99)
		pr.layer["serve.latency_us_p999"] = percentile(all, 0.999)
		pr.layer["serve.publish_us_p50"] = percentile(publishUs, 0.5)
		pr.layer["serve.post_publish_request_us_p50"] = percentile(postPublishUs, 0.5)
	}
	return pr
}

// serve_sim --------------------------------------------------------------------

// serveSim drives the virtual-time scheduler with inference made
// negligible (Flatten → Dense 16→3 on 1×4×4 inputs), open loop and near
// saturation, so both shedding mechanisms fire. Arrivals are virtual, so
// the generator is never late: its lateness is zero by construction.
type serveSim struct {
	sz   sizes
	srv  *serve.Server
	load serve.LoadConfig
	ref  string // Report.String() of the warm-up call; every call must repeat it
	rep  serve.Report
	net  *nn.Network
}

func (w *serveSim) name() string { return "serve_sim" }

func (w *serveSim) setup(seed uint64, tr *tracer) error {
	build := func() *nn.Network {
		br := frand.New(seed ^ 0x51a)
		return nn.NewNetwork(nn.NewFlatten(), nn.NewDense(br, 16, 3))
	}
	w.net = build()
	id := tr.begin("serve.NewServer", "serve", -1, 0, 0)
	srv, err := serve.NewServer(build, w.net.Snapshot(), serve.Config{
		MaxBatch: 8, BatchBudget: 1, Workers: benchWorkers, IntraOp: benchIntraOp,
		Admission: serve.AdmissionConfig{Depth: 32, Deadline: 6},
		Flush:     serve.FlushEDF,
	})
	tr.end(id)
	if err != nil {
		return err
	}
	w.srv = srv
	r := frand.New(seed ^ 0x1ead)
	inputs := make([]*tensor.Tensor, 16)
	for i := range inputs {
		inputs[i] = tensor.Randn(r, 0.5, 1, 4, 4)
	}
	w.load = serve.LoadConfig{
		Requests:     w.sz.SimRequests,
		Arrival:      serve.OpenLoop{Rate: 4.6, Seed: seed ^ 0xa11ce},
		Service:      serve.AffineService{Base: 1, PerItem: 0.25},
		Seed:         seed,
		PublishEvery: 5,
		Inputs:       inputs,
	}
	w.rep, err = srv.RunLoad(w.load)
	if err != nil {
		return err
	}
	w.ref = w.rep.String()
	return nil
}

func (w *serveSim) pass(tr *tracer) passResult {
	pr := passResult{layer: map[string]float64{}}
	var wall time.Duration
	for i := 0; i < w.sz.SimCalls; i++ {
		id := tr.begin("serve.RunLoad", "serve", -1, i, 0)
		t0 := time.Now()
		rep, err := w.srv.RunLoad(w.load)
		d := time.Since(t0)
		tr.end(id)
		wall += d
		pr.callMs = append(pr.callMs, ms(d))
		pr.attempted++
		if err != nil || rep.String() != w.ref || rep.Served+rep.ShedQueue+rep.ShedDeadline != w.sz.SimRequests {
			pr.failed++
		}
	}
	pr.ops = float64(w.sz.SimCalls * w.sz.SimRequests)
	rep := w.rep
	if rep.ShedQueue == 0 || rep.ShedDeadline == 0 {
		pr.err = fmt.Errorf("serve_sim: shed %d by queue depth and %d by deadline; the workload must exercise both", rep.ShedQueue, rep.ShedDeadline)
	}
	pr.digest = fmt.Sprintf("%016x served=%d shed=%d+%d", rep.OutputDigest, rep.Served, rep.ShedQueue, rep.ShedDeadline)
	pr.layer["serve.sim_served"] = float64(rep.Served)
	pr.layer["serve.sim_shed_queue"] = float64(rep.ShedQueue)
	pr.layer["serve.sim_shed_deadline"] = float64(rep.ShedDeadline)
	pr.layer["serve.sim_shed_share"] = float64(rep.ShedQueue+rep.ShedDeadline) / float64(rep.Requests)
	pr.layer["serve.sim_batches"] = float64(rep.Batches)
	pr.layer["serve.sim_max_queue"] = float64(rep.MaxQueue)
	pr.layer["serve.sim_mean_batch"] = rep.MeanBatch
	pr.layer["serve.sim_vp99"] = rep.P99
	pr.layer["serve.sim_vthroughput"] = rep.Throughput
	pr.layer["serve.sim_digest_stable"] = 1
	if pr.failed > 0 {
		pr.layer["serve.sim_digest_stable"] = 0
	}
	if tr != nil {
		perCall := wall.Seconds() / float64(w.sz.SimCalls)
		pr.layer["serve.sim_ns_per_request"] = 1e9 * perCall / float64(w.sz.SimRequests)
		// Replay the inference alone: Batches batches of ⌈MeanBatch⌉ rows
		// through the frozen net. What RunLoad's wall time does not spend
		// there is the scheduler's.
		rows := int(math.Ceil(rep.MeanBatch))
		x := tensor.New(rows, 1, 4, 4)
		fz := w.net.Freeze()
		fz.Infer(x)
		inferNs := timeOp(20*time.Millisecond, 256, func() { fz.Infer(x) })
		pr.layer["serve.sim_residual_share"] = 1 - inferNs*1e-9*float64(rep.Batches)/perCall
	}
	return pr
}
