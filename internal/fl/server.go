package fl

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"heteroswitch/internal/nn"
)

// Server is the barrier driver of the aggregation core: every round it draws
// K clients, runs their steps on W shard goroutines, merges the shards and
// installs the new global — the paper's synchronous protocol.
type Server struct {
	engine
	// plan is the scratch of the round's client→worker split.
	plan shardPlan
}

// NewServer builds a server with a fresh global model from the builder and
// one training replica per cfg.Workers.
func NewServer(cfg Config, builder Builder, loss nn.Loss, strategy Strategy, clients []*Client) (*Server, error) {
	s := &Server{}
	w := max(cfg.Workers, 1)
	if err := s.init(cfg, builder, loss, strategy, clients, w, w, w); err != nil {
		return nil, err
	}
	if cfg.Faults.NeedsVirtualTime() {
		return nil, fmt.Errorf("fl: fault model %q needs the virtual-time async engine for crash/flaky/churn; the synchronous server supports corruption-only models", cfg.Faults)
	}
	return s, nil
}

// RunRound executes one communication round and returns its stats.
//
// The sampled clients are partitioned over the workers (shardPlan.split:
// balanced on sample count, a pure function of the sampled list); each
// worker runs its shard's steps in sampling order, folding every result into
// its own accumulator as it finishes — reusing the worker's one scratch
// set — and the shards are merged tree-style at round end. Peak
// weight memory is O(workers), not O(K), and because no shard's contents
// depend on scheduling, a fixed Config is bit-reproducible at every worker
// count.
func (s *Server) RunRound(round int) RoundStats {
	sampled := s.draw(make([]*Client, 0, s.Cfg.ClientsPerRound))
	st := s.tally(round)
	st.BytesDown = st.wb * int64(len(sampled))
	// Workers write disjoint indices; the stats are folded in client order.
	results := make([]ClientResult, len(sampled))
	rejected := make([]bool, len(sampled))

	workers := min(len(s.nets), len(sampled))
	// Rewound on the main goroutine so the shard state lives in exactly one
	// place.
	for _, acc := range s.accs[:workers] {
		acc.Reset(s.Global, s.Cfg)
	}
	var wg sync.WaitGroup
	for w, shard := range s.plan.split(sampled, workers) {
		wg.Add(1)
		go func(w int, shard []int) {
			defer wg.Done()
			for _, i := range shard {
				results[i], rejected[i] = s.train(w, s.Global, &s.scratch[w], sampled[i], round, round)
				fold(s.accs[w], &results[i], rejected[i], 1)
			}
		}(w, shard)
	}
	wg.Wait()
	s.finalize(mergeShards(s.accs[:workers]))
	for i, r := range results {
		st.add(r, true, rejected[i])
	}
	return st.finish()
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
	s.install(w)
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
