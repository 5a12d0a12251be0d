package fl

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sync"
	"testing"

	"heteroswitch/internal/nn"
)

// The sampler once flipped a per-client dropout coin after each draw; with
// the coin off it consumed nothing, and with the coin gone the stream must
// still be that one: one Choice per round. The digest was recorded on the
// last tree that had the coin (dropout 0).
func TestSamplingStreamPinned(t *testing.T) {
	srv := fixtureServer(t, FedAvg{}, 1)
	h := fnv.New64a()
	srv.Run(func(s RoundStats) {
		if s.Round == 0 && !slices.Equal(s.Sampled, []int{2, 1, 0, 5}) {
			t.Fatalf("round 0 sampled %v, want [2 1 0 5]", s.Sampled)
		}
		for _, id := range s.Sampled {
			fmt.Fprintf(h, "%d,", id)
		}
		fmt.Fprint(h, ";")
	})
	if got := h.Sum64(); got != 0x90f174448dbf5508 {
		t.Fatalf("sampling stream digest %016x, want 90f174448dbf5508", got)
	}
}

func TestCommunicationAccounting(t *testing.T) {
	srv := fixtureServer(t, FedAvg{}, 1)
	wb := weightBytes(srv.Global)
	if wb <= 0 {
		t.Fatal("weight bytes must be positive")
	}
	stats := srv.RunRound(0)
	wantDown := wb * int64(srv.Cfg.ClientsPerRound)
	if stats.BytesDown != wantDown || stats.BytesUp != wantDown {
		t.Fatalf("bytes down/up = %d/%d, want %d", stats.BytesDown, stats.BytesUp, wantDown)
	}
}

// A round has K steps to train, so the barrier server builds at most K
// replicas, whatever Workers asks for, with two scratch sets each and one
// accumulator.
func TestServerBuildsAtMostKReplicas(t *testing.T) {
	for _, c := range []struct{ workers, want int }{{8, 4}, {4, 4}, {3, 3}, {0, 1}} {
		srv := fixtureServer(t, FedAvg{}, c.workers) // K = 4
		if len(srv.nets) != c.want || len(srv.scratch) != 2*c.want || srv.acc == nil {
			t.Fatalf("Workers %d, K 4: %d replicas, %d scratch sets, accumulator %v; want %d, %d and one",
				c.workers, len(srv.nets), len(srv.scratch), srv.acc, c.want, 2*c.want)
		}
		srv.RunRound(0)
	}
}

// recording is FedAvg whose accumulator appends every folded client's ID to
// folded, under a mutex, so a fold from any goroutine is seen.
type recording struct {
	FedAvg
	mu     *sync.Mutex
	folded *[]int
}

func (r recording) NewAccumulator(global nn.Weights, cfg Config) Accumulator {
	return recordingAccumulator{r.FedAvg.NewAccumulator(global, cfg), r}
}

type recordingAccumulator struct {
	Accumulator
	r recording
}

func (a recordingAccumulator) Fold(res ClientResult, scale float64) {
	a.r.mu.Lock()
	*a.r.folded = append(*a.r.folded, res.ClientID)
	a.r.mu.Unlock()
	a.Accumulator.Fold(res, scale)
}

// The barrier server folds every round in sampling order at every worker
// count: Workers only changes which replica trains a client, never the order
// its result reaches the accumulator.
func TestServerFoldsInSamplingOrder(t *testing.T) {
	for workers := 1; workers <= 4; workers++ {
		var folded []int
		srv := fixtureServer(t, recording{mu: new(sync.Mutex), folded: &folded}, workers)
		srv.Run(func(st RoundStats) {
			if !slices.Equal(folded, st.Sampled) {
				t.Fatalf("workers %d, round %d: folded %v, sampled %v", workers, st.Round, folded, st.Sampled)
			}
			folded = folded[:0]
		})
	}
}
