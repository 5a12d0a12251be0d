package fl

import (
	"fmt"
	"math"
	"sync"

	"heteroswitch/internal/nn"
	"heteroswitch/internal/simclock"
)

// StalenessPolicy maps a completed result's staleness — how many global
// model updates were applied between its dispatch and its arrival — to the
// multiplicative discount on its fold weight. Weight must be a deterministic
// function of staleness, and policies that preserve the synchronous
// equivalence contract keep Weight(0) == 1 so fresh results fold exactly as
// the synchronous server folds them (PolynomialStaleness does). A weight of 0
// drops the result.
type StalenessPolicy interface {
	Name() string
	Weight(staleness int) float64
}

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
	// default Concurrency/Buffer) makes the async run, at any Workers,
	// bit-identical to the synchronous server at Workers = 1.
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
	// (RoundStats.Failed) and a replacement admitted. 0 means 3
	// whenever Timeout > 0.
	MaxAttempts int
	// MaxStaleness, when > 0, is the drop rule: a completion whose
	// staleness exceeds it is discarded before training — it consumes its
	// fold slot like a zero-discount skip, its upload bytes are wasted
	// (RoundStats.BytesWasted), and no replacement draw happens, so
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
	// Written so NaN fails too: a NaN or +Inf span would reach the clock as a
	// non-finite instant.
	if !(a.Timeout >= 0 && a.Timeout <= math.MaxFloat64 && a.RetryBackoff >= 0 && a.RetryBackoff <= math.MaxFloat64) ||
		a.MaxAttempts < 0 || a.MaxStaleness < 0 {
		return fmt.Errorf("fl: negative or non-finite async timeout/backoff/attempts/staleness: %g/%g/%d/%d",
			a.Timeout, a.RetryBackoff, a.MaxAttempts, a.MaxStaleness)
	}
	if a.Timeout <= 0 && (a.MaxAttempts > 0 || a.RetryBackoff > 0) {
		return fmt.Errorf("fl: async attempt cap/backoff configured without a timeout")
	}
	return nil
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

// AsyncServer is the event-loop driver of the aggregation core:
// staleness-aware asynchronous federated training on a deterministic
// virtual-time simulation. There is no round barrier: the
// server keeps Concurrency jobs in flight, a simclock heap orders their
// completions in virtual time, and every completed result folds into the
// strategy's accumulator — discounted by the staleness policy — with an
// aggregation (a new global version) every Buffer folds. New work is
// admitted at aggregation boundaries, so each job trains against a
// well-defined broadcast version; with Concurrency > Buffer the windows
// overlap and results arrive stale.
//
// Each window runs in three phases. Plan pops the window's Buffer
// completions off the clock with everything that reads no training result:
// timeouts, reissues, failures and their replacements, the staleness drop
// rule and discount. Execute runs the planned steps on the engine's crew of
// W = min(Config.Workers, Buffer) replicas (at least 1), which split the
// frozen forward's budget as the barrier server's do: every replica claims
// and trains steps in plan order, and replica 0, on the calling goroutine,
// also folds each result into the one accumulator in plan order. Account
// releases the versions and adds the stats in the same order, and the window
// finalizes.
//
// Determinism: the only randomness is the client-sampling stream (the core's
// draw, consumed exactly as the barrier server consumes it) and the
// hash-seeded latency model; completion ties at one virtual instant break by
// dispatch sequence. Fold order is the event order at every Workers and
// IntraOp, and a step starts only after the window's earlier steps of the
// same client are folded (SCAFFOLD's per-client state needs it), so two runs
// with the same Config (Workers and IntraOp aside), AsyncConfig and
// population are bit-identical. A run with zero latency, no discount, and
// Concurrency == Buffer == ClientsPerRound is bit-identical to the
// synchronous server at Workers = 1, for every strategy. No wall-clock time
// is read anywhere in the loop.
type AsyncServer struct {
	engine
	Async AsyncConfig
	// OnPublish, when non-nil, is invoked synchronously from finalizeWindow
	// for every window that installed a new global version, with the new
	// version counter, the new global weights, and the virtual time of the
	// publish. This is the training→serving wiring point: a serving store
	// subscribes here instead of polling. The weights are only guaranteed
	// valid during the call — a replaced global recycles once no job trains
	// against it — so a consumer that outlives the call must copy them
	// (serve.Store.TakeBuffer + PublishAt is the wired pattern).
	// Windows whose folds all carried zero weight publish nothing.
	OnPublish func(version int, w nn.Weights, vtime float64)

	clock simclock.Clock

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
	window int
	exec   execState
}

// execState is what the crew's replicas share while they execute a window:
// the claim and fold cursors under mu. A claimed step that is not yet folded
// lies in [folded, folded+len(scratch)), so step i trains into the engine's
// scratch[i%len(scratch)] without colliding with another.
// The engine holds 2W scratch sets, room for a step in training on each
// replica and as many trained ones waiting for the fold; a replica that runs
// further ahead waits.
type execState struct {
	mu           sync.Mutex
	cond         sync.Cond
	next, folded int
}

// NewAsyncServer builds an asynchronous server with a fresh global model.
func NewAsyncServer(cfg Config, builder Builder, loss nn.Loss, strategy Strategy,
	clients []*Client, async AsyncConfig) (*AsyncServer, error) {
	s := &AsyncServer{Async: async.withDefaults(cfg), events: make(map[int]asyncEvent)}
	if err := s.Async.validate(); err != nil {
		return nil, err
	}
	w := min(max(cfg.Workers, 1), s.Async.Buffer)
	if err := s.init(cfg, builder, loss, strategy, clients, w, 1, 2*w); err != nil {
		return nil, err
	}
	if cfg.Faults.NeedsTimeout() && s.Async.Timeout <= 0 {
		return nil, fmt.Errorf("fl: fault model %q can lose dispatched jobs; AsyncConfig.Timeout must be > 0", cfg.Faults)
	}
	s.exec.cond.L = &s.exec.mu
	return s, nil
}

// nextClient pops the dispatch queue, refilling it with a fresh draw when it
// runs dry.
func (s *AsyncServer) nextClient() *Client {
	if s.qhead == len(s.queue) {
		s.queue, s.qhead = s.draw(s.queue[:0]), 0
	}
	c := s.queue[s.qhead]
	s.queue[s.qhead] = nil
	s.qhead++
	return c
}

// admit tops the in-flight set up to Concurrency at the current virtual
// time, broadcasting the current global version to each new job.
func (s *AsyncServer) admit(st *tally) {
	for len(s.events) < s.Async.Concurrency {
		c := s.nextClient()
		job := asyncJob{client: c, version: s.version, attempt: 1, key: s.seq}
		s.store.Retain(s.version, s.Global)
		s.dispatch(job, 0, st)
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
func (s *AsyncServer) dispatch(job asyncJob, delay float64, st *tally) {
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
	st.BytesDown += st.wb
}

// RunRound executes one aggregation window: admit new jobs, plan the next
// Buffer completions in virtual-time order, run them, and apply the
// aggregated update.
func (s *AsyncServer) RunRound() RoundStats {
	st := s.tally(s.window)
	s.window++
	s.admit(&st)
	s.plan(&st)
	s.exec.next, s.exec.folded = 0, 0
	s.crew(len(s.nets), s.work)
	// The version only moves at finalize, so staleness is still the plan's.
	for i := range s.steps {
		p := &s.steps[i]
		staleness := s.version - p.round
		s.store.Release(p.round)
		st.add(p)
		st.MeanStaleness += float64(staleness)
		st.MeanDiscount += p.scale
		st.MaxStaleness = max(st.MaxStaleness, staleness)
	}
	st.MeanStaleness /= float64(s.Async.Buffer)
	st.MeanDiscount /= float64(s.Async.Buffer)

	s.finalizeWindow()
	st.VirtualTime = s.clock.Now()
	st.Version = s.version
	return st.finish()
}

// plan pops completions off the clock until the window holds Buffer steps.
// Nothing here reads a training result, so the event, dispatch, clock and
// sampling streams advance exactly as if every step ran as it was popped.
//
// A timeout never takes a step: the job is redispatched against the current
// global with exponential backoff or — attempts exhausted — its client is
// counted failed for the window and replaced, so Concurrency jobs stay in
// flight. A completion takes one, scaled by its staleness discount. A
// discount of 0 — the MaxStaleness drop rule, or the policy's own zero —
// skips training: the fold would contribute nothing (Fold at scale 0 is a
// no-op by contract), the client's RoundRNG is a pure function of (client,
// version) so no shared stream advances, and the step still releases its
// version and accounts the upload (the client uploaded; the server
// discarded).
func (s *AsyncServer) plan(st *tally) {
	s.steps = s.steps[:0]
	for len(s.steps) < s.Async.Buffer {
		ev, ok := s.clock.Next()
		if !ok {
			panic("fl: async event queue drained mid-window")
		}
		e := s.events[ev.ID]
		delete(s.events, ev.ID)
		job := e.job
		if e.timeout {
			s.store.Release(job.version)
			if job.attempt >= s.Async.MaxAttempts {
				st.Failed++
				if st.Failed > failedGuard(s.Async.Buffer) {
					panic("fl: async window starved: every dispatched job times out (is the crash probability 1?)")
				}
				s.admit(st)
				continue
			}
			delay := math.Ldexp(s.Async.RetryBackoff, job.attempt-1)
			job.attempt++
			job.version = s.version
			s.store.Retain(s.version, s.Global)
			s.dispatch(job, delay, st)
			st.Reissues++
			continue
		}
		staleness := s.version - job.version
		discount := s.Async.Staleness.Weight(staleness)
		if s.Async.MaxStaleness > 0 && staleness > s.Async.MaxStaleness {
			// The drop rule: the upload already happened (BytesUp) but is
			// discarded (BytesWasted), and the step is consumed without a
			// replacement draw, keeping the sampling stream pinned to the
			// no-drop server's.
			st.StaleDropped++
			st.BytesWasted += st.wb
			discount = 0
		} else if discount == 0 {
			st.Skipped++
		}
		s.steps = append(s.steps, step{
			client: job.client, global: s.store.Weights(job.version), round: job.version, key: job.key, scale: discount,
			res: ClientResult{ClientID: job.client.ID, DeviceIdx: job.client.Device}, ready: discount == 0,
		})
	}
}

// work is replica w's part of the execute phase, one loop on every replica.
// Replica 0 folds step folded into the one accumulator as soon as it is
// ready; otherwise every replica claims and trains the next step in plan
// order, against the exact global version broadcast at the job's dispatch.
// Replica 0 returns once every step is folded, the others once every step is
// claimed, so with W = 1 each step trains, then folds, in plan order. The
// version store is only read while the crew runs.
func (s *AsyncServer) work(w int) {
	x := &s.exec
	x.mu.Lock()
	for {
		if w == 0 && x.folded < len(s.steps) && s.steps[x.folded].ready {
			x.mu.Unlock()
			s.steps[x.folded].fold(s.accs[0])
			x.mu.Lock()
			x.folded++
		} else if i := s.claim(); i >= 0 {
			x.mu.Unlock()
			s.train(w, &s.steps[i], &s.scratch[i%len(s.scratch)])
			x.mu.Lock()
			s.steps[i].ready = true
		} else if w == 0 && x.folded == len(s.steps) || w != 0 && x.next == len(s.steps) {
			x.mu.Unlock()
			return
		} else {
			x.cond.Wait()
			continue
		}
		x.cond.Broadcast()
	}
}

// claim hands out the next step to train, or −1 when every step is claimed
// or the next one must wait: for the scratch ring to turn, or for the fold of
// an earlier trained step of the same client in [folded, next) (SCAFFOLD's
// per-client state needs it), a span the ring bounds to 2W steps. Steps are
// claimed in plan order. The caller holds the execute mutex.
func (s *AsyncServer) claim() int {
	x := &s.exec
	for x.next < len(s.steps) && s.steps[x.next].ready {
		x.next++
	}
	if x.next == len(s.steps) || x.next >= x.folded+len(s.scratch) {
		return -1
	}
	c := s.steps[x.next].client
	for j := x.folded; j < x.next; j++ {
		if s.steps[j].client == c && s.steps[j].scale != 0 {
			return -1
		}
	}
	x.next++
	return x.next - 1
}

// finalizeWindow turns the window's accumulator into the next global
// version through the engine's finalize and rewinds the accumulator to it. A
// window whose folds all carried zero weight (every discount was 0) leaves
// the global — and the version counter — unchanged, so staleness keeps
// measuring real model drift.
func (s *AsyncServer) finalizeWindow() {
	if s.finalize(s.accs[0]) && s.OnPublish != nil {
		s.OnPublish(s.version, s.Global, s.clock.Now())
	}
	s.accs[0].Reset(s.Global, s.Cfg)
}

// Run executes cfg.Rounds aggregation windows, invoking callback (if
// non-nil) after each.
func (s *AsyncServer) Run(callback func(RoundStats)) {
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

// InFlight returns the number of dispatched-but-unfolded jobs.
func (s *AsyncServer) InFlight() int { return len(s.events) }
