package fl

import (
	"fmt"

	"heteroswitch/internal/faults"
	"heteroswitch/internal/frand"
	"heteroswitch/internal/nn"
	"heteroswitch/internal/parallel"
)

// engine is the aggregation core that Server and AsyncServer both embed:
// construction and validation, the client-sampling stream, the client step
// (train → corrupt → gate, then fold), the round's stats fold, the replicas
// with their accumulators and scratch pool, and GlobalNet. What is left to the
// two servers is only how a window of steps is driven — W shard goroutines
// behind a barrier, or one virtual-time event loop that trains on W replicas
// and folds in event order. Nothing here knows which driver is calling: where
// the two differ (the global a job trains against, its RNG and corruption
// keys, its fold scale, its replica and accumulator) the step takes the
// difference as an argument.
type engine struct {
	Cfg      Config
	Strategy Strategy
	Loss     nn.Loss
	Clients  []*Client
	// Global is the current global model. Nothing may retain it across
	// rounds: both servers recycle retired weight sets.
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
	// pool recycles the barrier server's snapshot scratch buffers; it holds
	// at most len(nets) buffers at rest.
	pool weightsPool
	// wb is the on-the-wire size of one weight set.
	wb int64
}

// init validates cfg against the population and builds the core with a fresh
// global model, the given number of replicas, which split the frozen
// forward's kernel budget evenly, and the given number of accumulators.
func (e *engine) init(cfg Config, builder Builder, loss nn.Loss, strategy Strategy, clients []*Client, replicas, accs int) error {
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
	e.wb = weightBytes(e.Global)
	e.accs = make([]Accumulator, accs)
	for i := range e.accs {
		e.accs[i] = strategy.NewAccumulator(e.Global, cfg)
	}
	return nil
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

// localUpdate runs one client's local training on replica w against the given
// global weights. round keys the client's deterministic RNG.
func (e *engine) localUpdate(w int, global nn.Weights, c *Client, round int, scratch *nn.Weights) ClientResult {
	net := e.nets[w]
	if err := net.LoadWeights(global); err != nil {
		panic("fl: replica incompatible with global weights: " + err.Error())
	}
	return e.Strategy.LocalUpdate(&ClientContext{
		Net:     net,
		Global:  global,
		Client:  c,
		Cfg:     e.Cfg,
		Loss:    e.Loss,
		Round:   round,
		RNG:     c.RoundRNG(round),
		Scratch: scratch,
	})
}

// train is the first half of the one client step, the half that runs on
// replica w: train the client against the given global into scratch, poison
// the update when the fault model's draw for (client, key) says so, and pass
// it through the validation gate against the global it trained from. A
// rejected update must never reach an accumulator; fold is the step's other
// half.
//
// round keys the client's RNG and key the corruption draw: the barrier
// server passes its round number for both, the event loop the global version
// the job was dispatched against and the job's stable identity.
func (e *engine) train(w int, global nn.Weights, scratch *nn.Weights, c *Client, round, key int) (res ClientResult, rejected bool) {
	res = e.localUpdate(w, global, c, round, scratch)
	if m := e.Cfg.Faults.Corruption(c.ID, key); m != faults.None {
		corruptUpdate(m, global, res.Weights)
	}
	return res, !updateValid(global, res.Weights, e.Cfg.MaxDeltaNorm)
}

// fold is the second half of the client step: an admitted result joins acc at
// the given scale, and the result keeps only its scalar stats — its weights
// alias the scratch the next step trains into.
func fold(acc Accumulator, res *ClientResult, rejected bool, scale float64) {
	if !rejected {
		acc.Fold(*res, scale)
	}
	res.Weights = Weights{}
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
// the sample-weighted means, and a gate-rejected upload is wasted. trained is
// false for an upload the event loop discarded without running its step.
func (t *tally) add(res ClientResult, trained, rejected bool) {
	n := float64(res.NumSamples)
	t.MeanLoss += res.TrainLoss * n
	t.MeanInit += res.InitLoss * n
	t.samples += n
	t.Sampled = append(t.Sampled, res.ClientID)
	t.BytesUp += t.wb
	if trained {
		t.TotalEpochs += t.epochs
	}
	if rejected {
		t.Rejected = append(t.Rejected, res.ClientID)
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
// path, so its kernels may take the whole machine.
func (e *engine) GlobalNet() *nn.Network {
	net := e.builder()
	if err := net.LoadWeights(e.Global); err != nil {
		panic("fl: builder incompatible with global weights: " + err.Error())
	}
	net.SetIntraOp(intraOpShare(e.Cfg, 1))
	return net
}
