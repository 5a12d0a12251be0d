package fl

import (
	"fmt"

	"heteroswitch/internal/nn"
)

// Server is the barrier driver of the aggregation core: every round it draws
// K clients, runs their steps through the engine's window executor and
// installs the new global — the paper's synchronous protocol.
type Server struct {
	engine
	// sampled is the round's draw, reused every round.
	sampled []*Client
}

// NewServer builds a server with a fresh global model from the builder and
// one training replica per cfg.Workers, at most one per client a round
// samples (K): a round never has more steps to train at once than clients.
func NewServer(cfg Config, builder Builder, loss nn.Loss, strategy Strategy, clients []*Client) (*Server, error) {
	s := &Server{}
	if err := s.init(cfg, builder, loss, strategy, clients, cfg.ClientsPerRound); err != nil {
		return nil, err
	}
	if cfg.Faults.NeedsVirtualTime() {
		return nil, fmt.Errorf("fl: fault model %q needs the virtual-time async engine for crash/flaky/churn; the synchronous server supports corruption-only models", cfg.Faults)
	}
	return s, nil
}

// RunRound executes one communication round and returns its stats.
//
// The round's K sampled clients are the window's steps, in sampling order,
// each at scale 1 and keyed by the round. The replicas claim and train them
// costliest first within a ring of min(4W, K) scratch sets, while replica 0
// folds every result into the one accumulator in sampling order, so peak
// weight memory is O(workers), not O(K), and the fold order — the only order
// the aggregate's float64 sums see — is the sampling order at every worker
// count: a fixed Config is bit-identical at every Workers.
func (s *Server) RunRound(round int) RoundStats {
	s.sampled = s.draw(s.sampled[:0])
	st := s.tally(round)
	s.steps = s.steps[:0]
	for _, c := range s.sampled {
		s.steps = append(s.steps, step{client: c, global: s.Global, round: round, key: round, scale: 1})
		st.BytesDown += st.wb
	}
	s.execute()
	s.finalize()
	for i := range s.steps {
		st.add(&s.steps[i])
	}
	return st.finish()
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
