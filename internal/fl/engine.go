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
// with their scratch ring and the one accumulator, the version store behind
// the global, one finalize, GlobalNet, and the window executor that runs a
// window's steps on the crew of W replicas. What is left to the two servers
// is how a window is planned — the round's draw, or one virtual-time event
// loop — and accounted. Nothing here knows which driver is calling: where
// the two differ (the global a step trains against, its RNG and corruption
// keys, its fold scale) the step carries the difference.
//
// Every weight buffer has one owner. A scratch set belongs to the step
// training into it until the step is folded. Every global version lives in
// the store, and the engine holds the live one like any reader: it retains
// the global at init and at each finalize, and releases the version it
// replaces. A version's buffer recycles once its last
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
	// nets are the training replicas, one per concurrent step, and acc the
	// one accumulator every step of a window folds into. Both live as long as
	// the server, so the model-sized float64 sum buffers are allocated once,
	// not per window.
	nets []*nn.Network
	acc  Accumulator
	// scratch is the ring of weight sets steps train into: min(4W, window
	// length) of them.
	scratch []nn.Weights
	// store holds every global version still referenced; version numbers
	// the live one and counts the globals installed so far.
	store   nn.VersionStore
	version int
	// wb is the on-the-wire size of one weight set.
	wb int64
	// steps is the window, reused every window; exec is what the crew shares
	// while it runs them, and joined waits for the crew.
	steps  []step
	exec   execState
	joined sync.WaitGroup
}

// execState is what the crew's replicas share while they execute a window:
// the claim and fold cursors under mu. Steps are claimed only from the ring's
// span [folded, folded+len(scratch)), so step i trains into the engine's
// scratch[i%len(scratch)] without colliding with another. The engine holds
// min(4W, window length) scratch sets, room for a step in training on each
// replica and three times as many trained ones waiting for the fold, so a
// long client at the fold cursor leaves the other replicas work to claim; a
// replica that runs further ahead waits. next is the first step that is
// neither ready nor training: every step is claimed once it reaches the
// window's end.
type execState struct {
	mu           sync.Mutex
	cond         sync.Cond
	next, folded int
}

// init validates cfg against the population and builds the core for windows
// of the given length with a fresh global model as version 0, W =
// min(Workers, window) replicas (at least 1), which split the frozen
// forward's kernel budget evenly, a ring of min(4W, window) scratch sets and
// the one accumulator.
func (e *engine) init(cfg Config, builder Builder, loss nn.Loss, strategy Strategy, clients []*Client, window int) error {
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
	replicas := min(max(cfg.Workers, 1), window)
	e.nets = make([]*nn.Network, replicas)
	share := intraOpShare(cfg, replicas)
	for i := range e.nets {
		e.nets[i] = builder()
		e.nets[i].SetIntraOp(share)
	}
	e.Global = e.nets[0].Snapshot()
	e.store.Retain(0, e.Global)
	e.wb = weightBytes(e.Global)
	e.acc = strategy.NewAccumulator(e.Global, cfg)
	e.scratch = make([]nn.Weights, min(4*replicas, window))
	for i := range e.scratch {
		e.scratch[i] = e.Global.Zero()
	}
	e.exec.cond.L = &e.exec.mu
	return nil
}

// finalize turns the window's accumulator into the next global version,
// written into a recycled buffer, and reports whether it did. An accumulator
// that aggregated nothing (every update rejected or weighted 0) leaves the
// global — and the version counter, which the event loop's staleness counts
// — unchanged.
func (e *engine) finalize() bool {
	buf := e.store.TakeBuffer(e.Global)
	if !e.acc.FinalizeInto(buf) {
		e.store.GiveBuffer(buf)
		return false
	}
	// The engine's reference moves from the live version to buf.
	e.store.Release(e.version)
	e.version++
	e.Global = buf
	e.store.Retain(e.version, buf)
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
	// claim sets training under the execute mutex; the replica that trains
	// the step writes res and rejected, then sets ready under the mutex. A
	// skipped step is ready from the plan on.
	res      ClientResult
	rejected bool
	training bool
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

// fold is the second half of the client step, run by replica 0 in window
// order, whatever order the steps trained in: an admitted, trained result
// joins acc at the step's scale, and the result keeps only its scalar stats —
// its weights alias the scratch a later step trains into.
func (p *step) fold(acc Accumulator) {
	if !p.rejected && p.scale != 0 {
		acc.Fold(p.res, p.scale)
	}
	p.res.Weights = Weights{}
}

// execute rewinds the accumulator to the global the window updates and runs
// the window's steps on the crew of replicas: work(0) on the calling
// goroutine and work(1) … work(W−1) each on its own. It returns once every
// step is folded into the accumulator, in window order.
func (e *engine) execute() {
	e.acc.Reset(e.Global)
	e.exec.next, e.exec.folded = 0, 0
	for w := 1; w < len(e.nets); w++ {
		e.joined.Add(1)
		go func() {
			defer e.joined.Done()
			e.work(w)
		}()
	}
	e.work(0)
	e.joined.Wait()
}

// work is replica w's part of the window, one loop on every replica.
// Replica 0 folds step folded into the accumulator as soon as it is ready;
// otherwise every replica claims and trains the costliest step the ring
// allows. Replica 0 returns once every step is folded, the others once every
// step is claimed, so at any W the fold order is the window order: W only
// changes which replica trains a step, and when. The version store is only
// read while the crew runs.
func (e *engine) work(w int) {
	x := &e.exec
	x.mu.Lock()
	for {
		if w == 0 && x.folded < len(e.steps) && e.steps[x.folded].ready {
			x.mu.Unlock()
			e.steps[x.folded].fold(e.acc)
			x.mu.Lock()
			x.folded++
		} else if i := e.claim(); i >= 0 {
			x.mu.Unlock()
			e.train(w, &e.steps[i], &e.scratch[i%len(e.scratch)])
			x.mu.Lock()
			e.steps[i].ready = true
		} else if w == 0 && x.folded == len(e.steps) || w != 0 && x.next == len(e.steps) {
			x.mu.Unlock()
			return
		} else {
			x.cond.Wait()
			continue
		}
		x.cond.Broadcast()
	}
}

// claim hands out the costliest unclaimed step in the ring's span [folded,
// folded+len(scratch)), ties to the lower window index, and marks it
// training; or −1 when no step there may start. A step's cost is its
// client's sample count, which fixes its local steps. A step waits while an
// earlier step of its client in [folded, i), claimed or not, is unfolded
// (SCAFFOLD's per-client state needs it; a barrier round draws distinct
// clients, so only the event loop ever waits here). The step at the fold
// cursor never waits, so the window always moves. The caller holds the
// execute mutex.
func (e *engine) claim() int {
	x := &e.exec
	for x.next < len(e.steps) && (e.steps[x.next].ready || e.steps[x.next].training) {
		x.next++
	}
	best, cost := -1, -1
	for i := x.next; i < min(len(e.steps), x.folded+len(e.scratch)); i++ {
		p := &e.steps[i]
		if n := p.client.Data.Len(); !p.ready && !p.training && n > cost && !e.waits(i) {
			best, cost = i, n
		}
	}
	if best >= 0 {
		e.steps[best].training = true
	}
	return best
}

// waits reports whether step i must wait for the fold of an earlier step of
// its client in [folded, i). The caller holds the execute mutex.
func (e *engine) waits(i int) bool {
	c := e.steps[i].client
	for j := e.exec.folded; j < i; j++ {
		if e.steps[j].client == c && e.steps[j].scale != 0 {
			return true
		}
	}
	return false
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
