package fl

import (
	"fmt"
	"math"

	"heteroswitch/internal/faults"
	"heteroswitch/internal/frand"
	"heteroswitch/internal/nn"
	"heteroswitch/internal/simclock"
)

// StalenessPolicy maps a completed result's staleness — how many global
// model updates were applied between its dispatch and its arrival — to the
// multiplicative discount on its fold weight. Weight must be a deterministic
// function of staleness, and policies that preserve the synchronous
// equivalence contract keep Weight(0) == 1 so fresh results fold exactly as
// the synchronous server folds them (PolynomialStaleness does;
// ConstantStaleness only at C = 1). A weight of 0 drops the result.
type StalenessPolicy interface {
	Name() string
	Weight(staleness int) float64
}

// ConstantStaleness applies the same weight C to every result regardless of
// staleness — FedAsync's "constant" policy. C = 1 disables discounting; any
// other C also rescales FRESH results (Weight(0) = C ≠ 1), deliberately
// trading away the sync-equivalence contract, and C = 0 discards every
// result, freezing the global model. Use PolynomialStaleness when staleness
// alone should drive the discount.
type ConstantStaleness struct {
	C float64
}

// Name implements StalenessPolicy.
func (p ConstantStaleness) Name() string { return fmt.Sprintf("const(%g)", p.C) }

// Weight implements StalenessPolicy.
func (p ConstantStaleness) Weight(int) float64 { return p.C }

// PolynomialStaleness is the polynomial discount 1/(1+s)^Alpha: fresh results
// fold at full weight and weight decays polynomially with staleness. Alpha = 0
// (the zero value) makes the discount identically 1.
type PolynomialStaleness struct {
	Alpha float64
}

// Name implements StalenessPolicy.
func (p PolynomialStaleness) Name() string { return fmt.Sprintf("poly(%g)", p.Alpha) }

// Weight implements StalenessPolicy.
func (p PolynomialStaleness) Weight(staleness int) float64 {
	if staleness <= 0 || p.Alpha == 0 {
		return 1
	}
	return math.Pow(1+float64(staleness), -p.Alpha)
}

// AsyncConfig carries the asynchronous server's knobs on top of the shared
// fl.Config hyperparameters.
type AsyncConfig struct {
	// Staleness discounts stale folds. nil means no discount
	// (PolynomialStaleness{Alpha: 0}).
	Staleness StalenessPolicy
	// Latency models each dispatched job's virtual duration. nil means zero
	// latency: every job completes at its dispatch instant, which (with the
	// default Concurrency/Buffer) makes the async run bit-identical to the
	// synchronous server at Workers = 1.
	Latency simclock.LatencyModel
	// Concurrency is the number of jobs kept in flight. 0 means
	// cfg.ClientsPerRound. Values above Buffer overlap aggregation windows:
	// jobs dispatched against older globals complete under newer ones, which
	// is where staleness (and its discount) appears.
	Concurrency int
	// Buffer is the number of completed results folded per aggregation
	// (FedBuff's K). 0 means cfg.ClientsPerRound.
	Buffer int
	// Timeout arms per-job virtual-time reissue: an attempt that has not
	// completed Timeout units after its dispatch instant is abandoned and
	// the job redispatched (against the then-current global) after
	// RetryBackoff. 0 disables timeouts — the pre-timeout behavior, where
	// every dispatch eventually completes — and is rejected when
	// Config.Faults can crash jobs.
	Timeout float64
	// RetryBackoff is the virtual-time delay before a timed-out job's
	// reissue, doubling with each further attempt (exponential backoff).
	// 0 reissues at the timeout instant.
	RetryBackoff float64
	// MaxAttempts caps dispatch attempts per job: when the last allowed
	// attempt times out the client is counted failed for the window
	// (AsyncRoundStats.Failed) and a replacement admitted. 0 means 3
	// whenever Timeout > 0.
	MaxAttempts int
	// MaxStaleness, when > 0, is the drop rule: a completion whose
	// staleness exceeds it is discarded before training — it consumes its
	// fold slot like a zero-discount skip, its upload bytes are wasted
	// (AsyncRoundStats.BytesWasted), and no replacement draw happens, so
	// the sampling stream stays pinned to the no-drop server's.
	MaxStaleness int
}

// withDefaults resolves zero fields against the base config.
func (a AsyncConfig) withDefaults(cfg Config) AsyncConfig {
	if a.Staleness == nil {
		a.Staleness = PolynomialStaleness{}
	}
	if a.Latency == nil {
		a.Latency = simclock.Constant{}
	}
	if a.Buffer == 0 {
		a.Buffer = cfg.ClientsPerRound
	}
	if a.Concurrency == 0 {
		a.Concurrency = a.Buffer
	}
	if a.Timeout > 0 && a.MaxAttempts == 0 {
		a.MaxAttempts = 3
	}
	return a
}

// validate reports configuration errors (after withDefaults).
func (a AsyncConfig) validate() error {
	if a.Buffer < 1 || a.Concurrency < 1 {
		return fmt.Errorf("fl: non-positive async buffer/concurrency: %d/%d", a.Buffer, a.Concurrency)
	}
	if a.Buffer > a.Concurrency {
		return fmt.Errorf("fl: async buffer %d exceeds concurrency %d (a window could never fill)", a.Buffer, a.Concurrency)
	}
	if a.Timeout < 0 || a.RetryBackoff < 0 || a.MaxAttempts < 0 || a.MaxStaleness < 0 {
		return fmt.Errorf("fl: negative async timeout/backoff/attempts/staleness: %g/%g/%d/%d",
			a.Timeout, a.RetryBackoff, a.MaxAttempts, a.MaxStaleness)
	}
	if a.Timeout <= 0 && (a.MaxAttempts > 0 || a.RetryBackoff > 0) {
		return fmt.Errorf("fl: async attempt cap/backoff configured without a timeout")
	}
	return nil
}

// AsyncRoundStats extends RoundStats with the asynchronous path's
// observability: where the virtual clock stood when the aggregation fired and
// how stale (and therefore how discounted) the folded results were.
type AsyncRoundStats struct {
	RoundStats
	// VirtualTime is the simulated clock at this aggregation, in the latency
	// model's units.
	VirtualTime float64
	// MeanStaleness is the mean number of global updates applied between
	// dispatch and arrival across this window's results; MaxStaleness the
	// worst case.
	MeanStaleness float64
	MaxStaleness  int
	// MeanDiscount is the mean staleness weight applied to this window's
	// folds (1 when nothing was stale or discounting is off).
	MeanDiscount float64
	// Version is the number of global model updates applied through this
	// aggregation.
	Version int
	// Skipped counts this window's completions whose staleness discount was 0:
	// their uploads were discarded without paying local training (the fold at
	// weight 0 is a no-op, so the result could never matter). Skipped clients
	// still appear in Sampled and in the byte accounting.
	Skipped int
	// StaleDropped counts completions discarded by the AsyncConfig.
	// MaxStaleness drop rule: like Skipped they consume a fold slot without
	// training, but their upload bytes additionally count as BytesWasted.
	StaleDropped int
	// Reissues counts timed-out attempts that were redispatched (with
	// exponential backoff) this window.
	Reissues int
	// Failed counts jobs abandoned after MaxAttempts timed-out attempts;
	// each failed client never uploads and a replacement job is admitted.
	Failed int
	// Deferred counts dispatches delayed by availability churn to the
	// client's next duty window.
	Deferred int
}

// asyncJob is one dispatched unit of client work: who trains, against which
// global version, on which attempt. key is the job's first dispatch sequence
// number — the stable identity under which the fault model draws the job's
// fate, so retries of the same job replay the same draw.
type asyncJob struct {
	client  *Client
	version int
	attempt int // 1-based dispatch attempt
	key     int
}

// asyncEvent is the single pending clock event of one in-flight job: its
// completion, or — when the current attempt is fated to fail or its latency
// overruns the timeout — its reissue deadline.
type asyncEvent struct {
	job     asyncJob
	timeout bool
}

// AsyncServer drives staleness-aware asynchronous federated training on a
// deterministic virtual-time simulation. There is no round barrier: the
// server keeps Concurrency jobs in flight, a simclock heap orders their
// completions in virtual time, and every completed result folds into the
// strategy's accumulator immediately — discounted by the staleness policy —
// with an aggregation (a new global version) every Buffer folds. New work is
// admitted at aggregation boundaries, so each job trains against a
// well-defined broadcast version; with Concurrency > Buffer the windows
// overlap and results arrive stale.
//
// Determinism: the only randomness is the client-sampling stream (the same
// stream, in the same order, as the synchronous server's) and the hash-seeded
// latency model; completion ties at one virtual instant break by dispatch
// sequence. Two runs with the same Config, AsyncConfig, and population are
// bit-identical, and a run with zero latency, no discount, and
// Concurrency == Buffer == ClientsPerRound is bit-identical to the
// synchronous server with Workers = 1, for every strategy. No wall-clock time is read
// anywhere in the loop.
//
// Training is evaluated lazily at completion time on a single replica that
// gets the full intra-op kernel budget (Config.Workers is ignored): the
// simulation's parallelism lives inside the kernels, where it is bit-exact,
// not across clients, where fold order would become scheduling-dependent.
type AsyncServer struct {
	Cfg      Config
	Async    AsyncConfig
	Strategy Strategy
	Loss     nn.Loss
	Clients  []*Client
	Global   nn.Weights
	// Version counts applied global updates. A window whose folds all carried
	// zero weight leaves the model — and so the version — unchanged.
	Version int
	// OnPublish, when non-nil, is invoked synchronously from finalizeWindow
	// for every window that installed a new global version, with the new
	// version counter, the new global weights, and the virtual time of the
	// publish. This is the training→serving wiring point: a serving store
	// subscribes here instead of polling. The weights are only guaranteed
	// valid during the call — retired globals recycle once their last
	// in-flight reader completes — so a consumer that outlives the call must
	// copy them (serve.Store.TakeBuffer + PublishAt is the wired pattern).
	// Windows whose folds all carried zero weight publish nothing.
	OnPublish func(version int, w nn.Weights, vtime float64)

	builder Builder
	rng     *frand.RNG
	net     *nn.Network
	acc     Accumulator
	clock   simclock.Clock
	pool    weightsPool
	store   nn.VersionStore

	// queue holds drawn-but-undispatched clients in sampling order; qhead
	// avoids re-slicing the backing array away.
	queue []*Client
	qhead int
	// events maps dispatch sequence number → the pending event of an
	// in-flight job (exactly one per job); seq is the monotonic dispatch
	// counter (also the clock tie-break).
	events map[int]asyncEvent
	seq    int
	// window counts completed aggregation windows (== RoundStats.Round).
	window  int
	dropped []int
}

// NewAsyncServer builds an asynchronous server with a fresh global model.
// Every strategy runs here: aggregation is the same Accumulator fold the
// synchronous server uses, scaled by the staleness discount.
func NewAsyncServer(cfg Config, builder Builder, loss nn.Loss, strategy Strategy,
	clients []*Client, async AsyncConfig) (*AsyncServer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(clients) == 0 {
		return nil, fmt.Errorf("fl: no clients")
	}
	if cfg.ClientsPerRound > len(clients) {
		return nil, fmt.Errorf("fl: K=%d exceeds population %d", cfg.ClientsPerRound, len(clients))
	}
	async = async.withDefaults(cfg)
	if err := async.validate(); err != nil {
		return nil, err
	}
	if cfg.Faults.NeedsTimeout() && async.Timeout <= 0 {
		return nil, fmt.Errorf("fl: fault model %q can lose dispatched jobs; AsyncConfig.Timeout must be > 0", cfg.Faults)
	}
	net := builder()
	net.SetIntraOp(intraOpShare(cfg, 1))
	global := net.Snapshot()
	return &AsyncServer{
		Cfg:      cfg,
		Async:    async,
		Strategy: strategy,
		Loss:     loss,
		Clients:  clients,
		Global:   global,
		builder:  builder,
		// The same sampling stream as the synchronous server: with zero
		// latency and no discount the two draw identical client sequences.
		rng:    frand.New(cfg.Seed ^ 0x5ca1ab1e),
		net:    net,
		acc:    strategy.NewAccumulator(global, cfg),
		events: make(map[int]asyncEvent),
	}, nil
}

// nextClient pops the dispatch queue, refilling it with a fresh K-client
// draw — consuming the sampling RNG exactly as the synchronous server's
// SampleClients + dropout pass does — whenever it runs dry. Clients lost to
// dropout are recorded and never dispatched (their broadcast still counts,
// since dropout is only observed after the round trip).
func (s *AsyncServer) nextClient(st *AsyncRoundStats, wb int64) *Client {
	for {
		if s.qhead < len(s.queue) {
			c := s.queue[s.qhead]
			s.queue[s.qhead] = nil
			s.qhead++
			if s.qhead == len(s.queue) {
				s.queue = s.queue[:0]
				s.qhead = 0
			}
			return c
		}
		for _, j := range s.rng.Choice(len(s.Clients), s.Cfg.ClientsPerRound) {
			c := s.Clients[j]
			if s.Cfg.ClientDropout > 0 && s.rng.Float64() < s.Cfg.ClientDropout {
				s.dropped = append(s.dropped, c.ID)
				st.BytesDown += wb
				continue
			}
			s.queue = append(s.queue, c)
		}
	}
}

// admit tops the in-flight set up to Concurrency at the current virtual
// time, broadcasting the current global version to each new job.
func (s *AsyncServer) admit(st *AsyncRoundStats) {
	wb := weightBytes(s.Global)
	for len(s.events) < s.Async.Concurrency {
		c := s.nextClient(st, wb)
		job := asyncJob{client: c, version: s.Version, attempt: 1, key: s.seq}
		s.store.Retain(s.Version, s.Global)
		s.dispatch(job, 0, st, wb)
	}
}

// dispatch broadcasts one attempt of a job, delay virtual-time units from
// now (0 at admission; the exponential backoff on reissue), and schedules
// the attempt's single pending event. Churn defers the dispatch instant to
// the client's next duty window. The attempt's latency is drawn exactly as
// the fault-free server draws it — one Sample per dispatch sequence number —
// and the attempt fails when the fault model says so (crash or a transient
// attempt still in its failing prefix) or, with a timeout armed, when the
// drawn latency overruns it; a failing attempt schedules only its reissue
// deadline, a succeeding one only its completion. With no faults and no
// timeout this is byte-for-byte the pre-fault dispatch.
func (s *AsyncServer) dispatch(job asyncJob, delay float64, st *AsyncRoundStats, wb int64) {
	id := s.seq
	s.seq++
	at := s.clock.Now() + delay
	if f := s.Cfg.Faults; f.NeedsVirtualTime() && !f.Available(job.client.ID, at) {
		st.Deferred++
		at = f.NextOn(job.client.ID, at)
	}
	lat := s.Async.Latency.Sample(job.client.ID, id)
	fails := s.Cfg.Faults.FailCount(job.client.ID, job.key)
	to := s.Async.Timeout
	if job.attempt <= fails || (to > 0 && lat > to) {
		s.events[id] = asyncEvent{job: job, timeout: true}
		s.clock.Schedule(at+to, id)
	} else {
		s.events[id] = asyncEvent{job: job}
		s.clock.Schedule(at+lat, id)
	}
	st.BytesDown += wb
}

// runJob lazily evaluates one completed job — training against the exact
// global version broadcast at its dispatch — and folds the result into the
// round accumulator at the given discount. The returned result carries only
// scalar stats; its weights aliased the recycled scratch buffer.
//
// A discount of 0 skips training entirely: the fold would contribute nothing
// (Fold at scale 0 is a no-op by contract), so paying all
// LocalEpochs of SGD for it is pure waste. The skip is invisible to
// everything downstream — the client's RoundRNG is a pure function of
// (client, version) so no shared RNG stream advances, the zero-weight
// accumulator state is unchanged, and the caller still releases the version
// and accounts BytesUp (the client uploaded; the server discarded).
// The corruption process and the validation gate sit between training and
// the fold: a poisoned update is detected against the exact global version
// the client trained from and never reaches the accumulator — its client
// lands in Rejected and its upload in BytesWasted.
func (s *AsyncServer) runJob(job asyncJob, discount float64, st *AsyncRoundStats, wb int64) ClientResult {
	if discount == 0 {
		return ClientResult{ClientID: job.client.ID, DeviceIdx: job.client.Device}
	}
	global := s.store.Weights(job.version)
	scratch := s.pool.get(global)
	defer s.pool.put(scratch)
	res := localUpdate(s.Strategy, s.net, global, job.client, s.Cfg, s.Loss, job.version, &scratch)
	if m := s.Cfg.Faults.Corruption(job.client.ID, job.key); m != faults.None {
		corruptUpdate(m, global, res.Weights)
	}
	if updateValid(global, res.Weights, s.Cfg.MaxDeltaNorm) {
		s.acc.Fold(res, discount)
	} else {
		st.Rejected = append(st.Rejected, job.client.ID)
		st.BytesWasted += wb
	}
	res.Weights = Weights{}
	return res
}

// RunRound executes one aggregation window: admit new jobs, fold the next
// Buffer completions in virtual-time order, and apply the aggregated update.
func (s *AsyncServer) RunRound() AsyncRoundStats {
	var st AsyncRoundStats
	st.Round = s.window
	s.window++
	s.admit(&st)

	wb := weightBytes(s.Global)
	var totalSamples, staleSum, discSum float64
	for fold := 0; fold < s.Async.Buffer; fold++ {
		ev, ok := s.clock.Next()
		if !ok {
			panic("fl: async event queue drained mid-window")
		}
		e := s.events[ev.ID]
		delete(s.events, ev.ID)
		job := e.job
		if e.timeout {
			// The attempt's reissue deadline expired (the fault model failed
			// it, or its latency overran the timeout). Timeouts never consume
			// fold slots: either the job is redispatched against the current
			// global with exponential backoff, or — attempts exhausted — the
			// client is counted failed for the window and replaced so
			// Concurrency jobs stay in flight.
			s.store.Release(job.version, s.Global)
			if job.attempt >= s.Async.MaxAttempts {
				st.Failed++
				if st.Failed > failedGuard(s.Async.Buffer) {
					panic("fl: async window starved: every dispatched job times out (is the crash probability 1?)")
				}
				s.admit(&st)
				fold--
				continue
			}
			delay := math.Ldexp(s.Async.RetryBackoff, job.attempt-1)
			job.attempt++
			job.version = s.Version
			s.store.Retain(s.Version, s.Global)
			s.dispatch(job, delay, &st, wb)
			st.Reissues++
			fold--
			continue
		}
		staleness := s.Version - job.version
		discount := s.Async.Staleness.Weight(staleness)
		dropStale := s.Async.MaxStaleness > 0 && staleness > s.Async.MaxStaleness
		if dropStale {
			// The MaxStaleness drop rule fires before training: the upload
			// already happened (BytesUp) but is discarded (BytesWasted), and
			// the fold slot is consumed without a replacement draw, keeping
			// the sampling stream pinned to the no-drop server's.
			st.StaleDropped++
			st.BytesWasted += wb
			discount = 0
		} else if discount == 0 {
			st.Skipped++
		}
		res := s.runJob(job, discount, &st, wb)
		s.store.Release(job.version, s.Global)

		n := float64(res.NumSamples)
		st.MeanLoss += res.TrainLoss * n
		st.MeanInit += res.InitLoss * n
		totalSamples += n
		st.Sampled = append(st.Sampled, res.ClientID)
		st.BytesUp += wb
		staleSum += float64(staleness)
		discSum += discount
		if staleness > st.MaxStaleness {
			st.MaxStaleness = staleness
		}
	}
	// Collected after the fold loop so dropout observed while admitting
	// replacements for failed jobs lands in this window's stats (with no
	// faults, admission only happens up front and this is the same value).
	st.Dropped = s.dropped
	s.dropped = nil
	if totalSamples > 0 {
		st.MeanLoss /= totalSamples
		st.MeanInit /= totalSamples
	}
	st.MeanStaleness = staleSum / float64(s.Async.Buffer)
	st.MeanDiscount = discSum / float64(s.Async.Buffer)
	st.TotalEpochs = (s.Async.Buffer - st.Skipped - st.StaleDropped) * s.Cfg.LocalEpochs

	s.finalizeWindow()
	st.VirtualTime = s.clock.Now()
	st.Version = s.Version
	return st
}

// finalizeWindow turns the window's accumulator into the next global
// version. Like the synchronous server it finalizes into a recycled buffer;
// the buffer pool here is the version store's, fed by retired globals once
// their last in-flight reader completes. A window whose folds all carried
// zero weight (every discount was 0) leaves the global — and the version
// counter — unchanged, so staleness keeps measuring real model drift.
func (s *AsyncServer) finalizeWindow() {
	buf := s.store.TakeBuffer(s.Global)
	if s.acc.FinalizeInto(buf) {
		old := s.Global
		s.Global = buf
		s.Version++
		s.store.Retire(old)
		if s.OnPublish != nil {
			s.OnPublish(s.Version, s.Global, s.clock.Now())
		}
	} else {
		s.store.GiveBuffer(buf)
	}
	s.acc.Reset(s.Global, s.Cfg)
}

// Run executes cfg.Rounds aggregation windows, invoking callback (if
// non-nil) after each.
func (s *AsyncServer) Run(callback func(AsyncRoundStats)) {
	for w := 0; w < s.Cfg.Rounds; w++ {
		st := s.RunRound()
		if callback != nil {
			callback(st)
		}
	}
}

// failedGuard bounds permanent failures per window: past it every dispatch
// is evidently timing out (e.g. crash probability 1) and the window can
// never fill, so the simulation stops instead of spinning forever.
func failedGuard(buffer int) int {
	return 1000 * (buffer + 1)
}

// Now returns the current virtual time of the simulation.
func (s *AsyncServer) Now() float64 { return s.clock.Now() }

// InFlight returns the number of dispatched-but-unfolded jobs.
func (s *AsyncServer) InFlight() int { return len(s.events) }

// GlobalNet returns a network loaded with the current global weights, for
// evaluation; it gets the full intra-op budget like the synchronous server's.
func (s *AsyncServer) GlobalNet() *nn.Network {
	net := s.builder()
	if err := net.LoadWeights(s.Global); err != nil {
		panic("fl: builder incompatible with global weights: " + err.Error())
	}
	net.SetIntraOp(intraOpShare(s.Cfg, 1))
	return net
}
