package fl

import (
	"encoding/binary"
	"fmt"
	"io"

	"heteroswitch/internal/nn"
)

// Server is the barrier driver of the aggregation core: every round it draws
// K clients, runs their steps in W shards on the engine's crew, merges the
// shards and installs the new global — the paper's synchronous protocol.
type Server struct {
	engine
	// sampled is the round's draw and plan the scratch of its client→worker
	// split, both reused every round.
	sampled []*Client
	plan    shardPlan
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
// balanced on sample count, a pure function of the sampled list); the crew
// runs each shard's steps in sampling order on its own replica, folding every
// result into the replica's own accumulator as it finishes — reusing the
// replica's one scratch set — and the shards are merged tree-style at round
// end. Peak weight memory is O(workers), not O(K), and because no shard's
// contents depend on scheduling, a fixed Config is bit-reproducible at every
// worker count.
func (s *Server) RunRound(round int) RoundStats {
	s.sampled = s.draw(s.sampled[:0])
	st := s.tally(round)
	st.BytesDown = st.wb * int64(len(s.sampled))
	s.steps = s.steps[:0]
	for _, c := range s.sampled {
		s.steps = append(s.steps, step{client: c, global: s.Global, round: round, key: round, scale: 1})
	}
	workers := min(len(s.nets), len(s.steps))
	// Rewound on the calling goroutine so the shard state lives in exactly
	// one place.
	for _, acc := range s.accs[:workers] {
		acc.Reset(s.Global, s.Cfg)
	}
	s.plan.split(s.sampled, workers)
	s.crew(workers, s.work)
	s.finalize(mergeShards(s.accs[:workers]))
	for i := range s.steps {
		st.add(&s.steps[i])
	}
	return st.finish()
}

// work trains and folds replica w's shard. Replicas write disjoint steps; the
// stats are added in sampling order once the crew is done.
func (s *Server) work(w int) {
	for _, i := range s.plan.shards[w] {
		p := &s.steps[i]
		s.train(w, p, &s.scratch[w])
		p.fold(s.accs[w])
	}
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
