package fl

import (
	"fmt"
	"sync"

	"heteroswitch/internal/faults"
	"heteroswitch/internal/frand"
	"heteroswitch/internal/nn"
	"heteroswitch/internal/parallel"
)

// engine is the aggregation core that Server and AsyncServer both embed:
// construction and validation, the client-sampling stream, the client step
// (train → corrupt → gate, then fold), the round's stats fold, the replicas
// with their accumulators and scratch sets, the version store behind the
// global, one finalize, GlobalNet, the window's steps and the crew of W
// replicas that runs them. What is left to the two servers is how a window
// is planned and folded — balanced shards merged in a tree, or one virtual-
// time event loop whose replica 0 folds in event order. Nothing here knows
// which driver is calling: where the two differ (the global a step trains
// against, its RNG and corruption keys, its fold scale, its replica,
// accumulator and scratch set) the step carries the difference or takes it as
// an argument.
//
// Every weight buffer has one owner. A scratch set belongs to the step
// training into it until the step is folded. Every global version lives in
// the store, and the engine holds the live one like any reader: it retains
// the global at init, at each finalize and in LoadCheckpoint, and releases
// the version it replaces. A version's buffer recycles once its last
// reference is gone, and finalize draws the next global from those buffers.
type engine struct {
	Cfg      Config
	Strategy Strategy
	Loss     nn.Loss
	Clients  []*Client
	// Global is the current global model. Its buffer recycles once a newer
	// global replaces it and no job still trains against it, so a caller
	// that keeps it across a round must copy it.
	Global nn.Weights

	builder Builder
	// rng is the client-sampling stream; draw is its only reader.
	rng *frand.RNG
	// nets are the training replicas, one per concurrent step, and accs the
	// accumulators: one per replica on the barrier server, which merges its
	// shards, and one on the event loop, which folds every step into it. Both
	// live as long as the server, so the model-sized float64 sum buffers are
	// allocated once, not per round.
	nets []*nn.Network
	accs []Accumulator
	// scratch holds the weight sets steps train into: one per replica on the
	// barrier server, a ring of two per replica on the event loop.
	scratch []nn.Weights
	// store holds every global version still referenced; version numbers
	// the live one and counts the globals installed so far.
	store   nn.VersionStore
	version int
	// wb is the on-the-wire size of one weight set.
	wb int64
	// steps is the window, reused every window; joined waits for the crew.
	steps  []step
	joined sync.WaitGroup
}

// init validates cfg against the population and builds the core with a fresh
// global model as version 0, the given number of replicas, which split the
// frozen forward's kernel budget evenly, and the given numbers of
// accumulators and scratch sets.
func (e *engine) init(cfg Config, builder Builder, loss nn.Loss, strategy Strategy, clients []*Client, replicas, accs, scratch int) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if len(clients) == 0 {
		return fmt.Errorf("fl: no clients")
	}
	if cfg.ClientsPerRound > len(clients) {
		return fmt.Errorf("fl: K=%d exceeds population %d", cfg.ClientsPerRound, len(clients))
	}
	e.Cfg, e.Strategy, e.Loss, e.Clients, e.builder = cfg, strategy, loss, clients, builder
	e.rng = frand.New(cfg.Seed ^ 0x5ca1ab1e)
	e.nets = make([]*nn.Network, replicas)
	share := intraOpShare(cfg, replicas)
	for i := range e.nets {
		e.nets[i] = builder()
		e.nets[i].SetIntraOp(share)
	}
	e.Global = e.nets[0].Snapshot()
	e.store.Retain(0, e.Global)
	e.wb = weightBytes(e.Global)
	e.accs = make([]Accumulator, accs)
	for i := range e.accs {
		e.accs[i] = strategy.NewAccumulator(e.Global, cfg)
	}
	e.scratch = make([]nn.Weights, scratch)
	for i := range e.scratch {
		e.scratch[i] = e.Global.Zero()
	}
	return nil
}

// install makes w the global: the engine's reference moves from the live
// version to w as the next one.
func (e *engine) install(w nn.Weights) {
	e.store.Release(e.version)
	e.version++
	e.Global = w
	e.store.Retain(e.version, w)
}

// finalize turns acc into the next global version, written into a recycled
// buffer, and reports whether it did. An accumulator that aggregated nothing
// (every update rejected or weighted 0) leaves the global — and the version
// counter — unchanged.
func (e *engine) finalize(acc Accumulator) bool {
	buf := e.store.TakeBuffer(e.Global)
	if !acc.FinalizeInto(buf) {
		e.store.GiveBuffer(buf)
		return false
	}
	e.install(buf)
	return true
}

// intraOpShare is the core-budget token grant (parallel.Share) of cfg.IntraOp
// to each of the server's W replicas. W=1 receives the full budget.
func intraOpShare(cfg Config, workers int) int { return parallel.Share(cfg.IntraOp, workers) }

// Weights aliases nn.Weights.
type Weights = nn.Weights

// weightBytes returns the on-the-wire size of one weight set (float32
// payloads; headers ignored).
func weightBytes(w Weights) int64 {
	var n int64
	for _, p := range w.Params {
		n += int64(p.Size()) * 4
	}
	for _, st := range w.States {
		n += int64(st.Size()) * 4
	}
	return n
}

// draw appends one K-client draw to kept. It is the sampling stream's only
// reader, so both servers consume it identically: one Choice per draw. Losing
// a sampled client is the fault model's job (crash, flaky, churn), not the
// sampler's.
func (e *engine) draw(kept []*Client) []*Client {
	for _, j := range e.rng.Choice(len(e.Clients), e.Cfg.ClientsPerRound) {
		kept = append(kept, e.Clients[j])
	}
	return kept
}

// step is one client step of a window, the unit both drivers plan, train,
// fold and account: the barrier server fills its window from the round's
// draw, the event loop from its clock.
type step struct {
	client *Client
	global nn.Weights // the global the step trains against
	// round keys the client's RNG and key its corruption draw: the barrier
	// server's round for both, or the version the job was dispatched against
	// and the job's stable identity.
	round, key int
	// scale is the fold scale: 1 on the barrier server, the staleness
	// discount on the event loop, where 0 skips training.
	scale float64
	// The replica that trains the step writes res and rejected; on the event
	// loop it then sets ready under the execute mutex. A skipped step is ready
	// from the plan on.
	res      ClientResult
	rejected bool
	ready    bool
}

// train is the first half of the one client step, the half that runs on
// replica w: load p's global, train p's client against it into scratch,
// poison the update when the fault model's draw for (client, key) says so,
// and pass it through the validation gate against the global it trained
// from. A rejected update must never reach an accumulator; fold is the
// step's other half.
func (e *engine) train(w int, p *step, scratch *nn.Weights) {
	net := e.nets[w]
	if err := net.LoadWeights(p.global); err != nil {
		panic("fl: replica incompatible with global weights: " + err.Error())
	}
	p.res = e.Strategy.LocalUpdate(&ClientContext{
		Net:     net,
		Global:  p.global,
		Client:  p.client,
		Cfg:     e.Cfg,
		Loss:    e.Loss,
		Round:   p.round,
		RNG:     p.client.RoundRNG(p.round),
		Scratch: scratch,
	})
	if m := e.Cfg.Faults.Corruption(p.client.ID, p.key); m != faults.None {
		corruptUpdate(m, p.global, p.res.Weights)
	}
	p.rejected = !updateValid(p.global, p.res.Weights, e.Cfg.MaxDeltaNorm)
}

// fold is the second half of the client step: an admitted, trained result
// joins acc at the step's scale, and the result keeps only its scalar stats —
// its weights alias the scratch the next step trains into.
func (p *step) fold(acc Accumulator) {
	if !p.rejected && p.scale != 0 {
		acc.Fold(p.res, p.scale)
	}
	p.res.Weights = Weights{}
}

// crew runs one window on n replicas: work(0) on the calling goroutine and
// work(1) … work(n−1) each on its own, and returns once all of them have.
func (e *engine) crew(n int, work func(w int)) {
	for w := 1; w < n; w++ {
		e.joined.Add(1)
		go func() {
			defer e.joined.Done()
			work(w)
		}()
	}
	work(0)
	e.joined.Wait()
}

// tally is one round's RoundStats under construction.
type tally struct {
	RoundStats
	wb      int64   // wire size of one weight set
	epochs  int     // local epochs one trained step pays
	samples float64 // Σ n_k over the steps added so far
}

// tally starts the stats of the given round.
func (e *engine) tally(round int) tally {
	return tally{RoundStats: RoundStats{Round: round}, wb: e.wb, epochs: e.Cfg.LocalEpochs}
}

// add accounts one finished step — in sampling order on the barrier server,
// in completion order on the event loop: the client uploaded, its losses join
// the sample-weighted means, and a gate-rejected upload is wasted. A step at
// scale 0 is an upload the event loop discarded without training.
func (t *tally) add(p *step) {
	n := float64(p.res.NumSamples)
	t.MeanLoss += p.res.TrainLoss * n
	t.MeanInit += p.res.InitLoss * n
	t.samples += n
	t.Sampled = append(t.Sampled, p.res.ClientID)
	t.BytesUp += t.wb
	if p.scale != 0 {
		t.TotalEpochs += t.epochs
	}
	if p.rejected {
		t.Rejected = append(t.Rejected, p.res.ClientID)
		t.BytesWasted += t.wb
	}
}

// finish normalizes the loss sums and returns the round's stats.
func (t *tally) finish() RoundStats {
	if t.samples > 0 {
		t.MeanLoss /= t.samples
		t.MeanInit /= t.samples
	}
	return t.RoundStats
}

// GlobalNet returns a network loaded with the current global weights, for
// evaluation. The returned network is owned by the caller and its frozen
// forward gets the full intra-op budget: evaluation is a single-goroutine
// path, so its conv loops may take the whole machine.
func (e *engine) GlobalNet() *nn.Network {
	net := e.builder()
	if err := net.LoadWeights(e.Global); err != nil {
		panic("fl: builder incompatible with global weights: " + err.Error())
	}
	net.SetIntraOp(intraOpShare(e.Cfg, 1))
	return net
}
