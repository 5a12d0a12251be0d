package fl

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"heteroswitch/internal/frand"
	"heteroswitch/internal/nn"
	"heteroswitch/internal/parallel"
)

// Server drives the federated training loop: sample K clients, broadcast the
// global weights, run local updates (in parallel across workers), aggregate.
type Server struct {
	Cfg      Config
	Strategy Strategy
	Loss     nn.Loss
	Clients  []*Client
	Global   nn.Weights

	builder Builder
	rng     *frand.RNG
	// worker-owned network replicas, one per worker
	nets []*nn.Network
	// pool recycles per-worker snapshot scratch buffers; it holds at most
	// len(nets) buffers at rest.
	pool weightsPool
	// accs holds one shard accumulator per worker, reused across rounds (so
	// the model-sized float64 sum buffers are allocated once per worker, not
	// per round); plan is the scratch of the round's client→worker split.
	accs []Accumulator
	plan shardPlan
	// spare double-buffers the outgoing global weights: FinalizeInto
	// writes each round's new global into the weight set retired
	// two rounds ago instead of allocating a model-sized nn.Weights per
	// round. Safe because nothing retains a global weight set across rounds
	// — checkpoints serialize immediately and GlobalNet/replicas copy.
	spare nn.Weights
}

// NewServer builds a server with a fresh global model from the builder.
func NewServer(cfg Config, builder Builder, loss nn.Loss, strategy Strategy, clients []*Client) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(clients) == 0 {
		return nil, fmt.Errorf("fl: no clients")
	}
	if cfg.ClientsPerRound > len(clients) {
		return nil, fmt.Errorf("fl: K=%d exceeds population %d", cfg.ClientsPerRound, len(clients))
	}
	if cfg.Faults.NeedsVirtualTime() {
		return nil, fmt.Errorf("fl: fault model %q needs the virtual-time async engine for crash/flaky/churn; the synchronous server supports corruption-only models", cfg.Faults)
	}
	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}
	nets := make([]*nn.Network, workers)
	share := intraOpShare(cfg, workers)
	for i := range nets {
		nets[i] = builder()
		nets[i].SetIntraOp(share)
	}
	return &Server{
		Cfg:      cfg,
		Strategy: strategy,
		Loss:     loss,
		Clients:  clients,
		Global:   nets[0].Snapshot(),
		builder:  builder,
		rng:      frand.New(cfg.Seed ^ 0x5ca1ab1e),
		nets:     nets,
	}, nil
}

// intraOpShare is the core-budget token grant: each of the server's W client
// workers gets an equal share of the total intra-op budget (cfg.IntraOp, or
// GOMAXPROCS when 0), at least 1, so W workers × their kernel parallelism
// never oversubscribes the machine. W=1 — the single-client path — receives
// the full budget.
func intraOpShare(cfg Config, workers int) int {
	total := cfg.IntraOp
	if total <= 0 {
		total = parallel.Workers()
	}
	if workers < 1 {
		workers = 1
	}
	share := total / workers
	if share < 1 {
		share = 1
	}
	return share
}

// SampleClients picks K distinct clients uniformly for the round.
func (s *Server) SampleClients() []*Client {
	idx := s.rng.Choice(len(s.Clients), s.Cfg.ClientsPerRound)
	out := make([]*Client, len(idx))
	for i, j := range idx {
		out[i] = s.Clients[j]
	}
	return out
}

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

// Weights aliases nn.Weights for the local helper above.
type Weights = nn.Weights

// localUpdate runs one client's local training against the given global
// weights on the given replica — the unit of work shared by the synchronous
// round loop and the asynchronous event loop. round keys the client's
// deterministic per-round RNG; on the async path it is the global version the
// client trains against.
func localUpdate(strategy Strategy, net *nn.Network, global nn.Weights, client *Client,
	cfg Config, loss nn.Loss, round int, scratch *nn.Weights) ClientResult {
	if err := net.LoadWeights(global); err != nil {
		panic("fl: replica incompatible with global weights: " + err.Error())
	}
	ctx := &ClientContext{
		Net:     net,
		Global:  global,
		Client:  client,
		Cfg:     cfg,
		Loss:    loss,
		Round:   round,
		RNG:     client.RoundRNG(round),
		Scratch: scratch,
	}
	return strategy.LocalUpdate(ctx)
}

// RunRound executes one communication round and returns its stats.
//
// The sampled clients are partitioned over the workers (shardPlan.split:
// balanced on sample count, a pure function of the sampled list); each
// worker trains its shard in sampling order and folds every result into its
// private accumulator as it finishes — reusing one pooled snapshot buffer
// per worker — and the shards are merged tree-style at round end. Peak
// weight memory is O(workers), not O(K), and because no shard's contents
// depend on scheduling, a fixed Config is bit-reproducible at every worker
// count.
func (s *Server) RunRound(round int) RoundStats {
	sampled := s.SampleClients()
	var dropped []int
	if s.Cfg.ClientDropout > 0 {
		kept := sampled[:0]
		for _, c := range sampled {
			if s.rng.Float64() < s.Cfg.ClientDropout {
				dropped = append(dropped, c.ID)
			} else {
				kept = append(kept, c)
			}
		}
		sampled = kept
	}
	wb := weightBytes(s.Global)
	stats := RoundStats{Round: round, Dropped: dropped}
	stats.BytesDown = wb * int64(len(sampled)+len(dropped)) // broadcast before dropout is known
	if len(sampled) == 0 {
		// Everyone dropped: the round is lost; global model unchanged.
		return stats
	}
	results := make([]ClientResult, len(sampled))
	// rejected[i] marks a result the validation gate kept out of aggregation;
	// workers write disjoint indices, stats are collected in client order.
	rejected := make([]bool, len(sampled))

	workers := min(len(s.nets), len(sampled))
	// One accumulator per worker for the server's lifetime, rewound on the
	// main goroutine so the shard state lives in exactly one place.
	if s.accs == nil {
		s.accs = make([]Accumulator, len(s.nets))
	}
	for w := 0; w < workers; w++ {
		if s.accs[w] == nil {
			s.accs[w] = s.Strategy.NewAccumulator(s.Global, s.Cfg)
		} else {
			s.accs[w].Reset(s.Global, s.Cfg)
		}
	}
	var wg sync.WaitGroup
	for w, shard := range s.plan.split(sampled, workers) {
		wg.Add(1)
		go func(acc Accumulator, shard []int, net *nn.Network) {
			defer wg.Done()
			scratch := s.pool.get(s.Global)
			defer s.pool.put(scratch)
			for _, i := range shard {
				res := localUpdate(s.Strategy, net, s.Global, sampled[i], s.Cfg, s.Loss, round, &scratch)
				if s.admitUpdate(&res, round) {
					acc.Fold(res, 1)
				} else {
					rejected[i] = true
				}
				// The weights may alias the scratch buffer and have
				// been folded already; keep only the scalar stats.
				res.Weights = Weights{}
				results[i] = res
			}
		}(s.accs[w], shard, s.nets[w])
	}
	wg.Wait()
	// The new global is written into the spare weight buffer — the set
	// retired as global two rounds ago — so the steady state allocates no
	// model-sized weights at all; the previous global becomes the next
	// spare. A round that aggregated nothing (every update rejected) keeps
	// both untouched.
	if s.spare.Params == nil {
		s.spare = s.Global.Zero()
	}
	if mergeShards(s.accs[:workers]).FinalizeInto(s.spare) {
		s.Global, s.spare = s.spare, s.Global
	}

	stats.BytesUp = wb * int64(len(sampled))
	var totalSamples float64
	for i, r := range results {
		n := float64(r.NumSamples)
		stats.MeanLoss += r.TrainLoss * n
		stats.MeanInit += r.InitLoss * n
		totalSamples += n
		stats.Sampled = append(stats.Sampled, r.ClientID)
		if rejected[i] {
			stats.Rejected = append(stats.Rejected, r.ClientID)
			stats.BytesWasted += wb
		}
	}
	if totalSamples > 0 {
		stats.MeanLoss /= totalSamples
		stats.MeanInit /= totalSamples
	}
	stats.TotalEpochs = len(sampled) * s.Cfg.LocalEpochs
	return stats
}

// SaveCheckpoint serializes the current round counter and global weights so
// a long-running federation can resume after a restart.
func (s *Server) SaveCheckpoint(w io.Writer, round int) error {
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(round))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("fl: checkpoint header: %w", err)
	}
	if _, err := s.Global.WriteTo(w); err != nil {
		return fmt.Errorf("fl: checkpoint weights: %w", err)
	}
	return nil
}

// LoadCheckpoint restores global weights written by SaveCheckpoint and
// returns the stored round counter. The weights must match the server's
// model architecture.
func (s *Server) LoadCheckpoint(r io.Reader) (round int, err error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, fmt.Errorf("fl: checkpoint header: %w", err)
	}
	w, err := nn.ReadWeights(r)
	if err != nil {
		return 0, fmt.Errorf("fl: checkpoint weights: %w", err)
	}
	// Validate against the architecture via a replica before adopting.
	if err := s.nets[0].LoadWeights(w); err != nil {
		return 0, fmt.Errorf("fl: checkpoint incompatible: %w", err)
	}
	s.Global = w
	return int(binary.LittleEndian.Uint64(hdr[:])), nil
}

// Run executes cfg.Rounds rounds, invoking callback (if non-nil) after each.
func (s *Server) Run(callback func(RoundStats)) {
	for round := 0; round < s.Cfg.Rounds; round++ {
		stats := s.RunRound(round)
		if callback != nil {
			callback(stats)
		}
	}
}

// GlobalNet returns a network loaded with the current global weights, for
// evaluation. The returned network is owned by the caller and gets the full
// intra-op budget: evaluation is a single-goroutine path, so its kernels may
// take the whole machine.
func (s *Server) GlobalNet() *nn.Network {
	net := s.builder()
	if err := net.LoadWeights(s.Global); err != nil {
		panic("fl: builder incompatible with global weights: " + err.Error())
	}
	net.SetIntraOp(intraOpShare(s.Cfg, 1))
	return net
}
