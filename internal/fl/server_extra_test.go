package fl

import (
	"fmt"
	"hash/fnv"
	"slices"
	"testing"
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

// A round splits over at most K shards, so the barrier server builds at most
// K replicas, accumulators and scratch sets, whatever Workers asks for.
func TestServerBuildsAtMostKReplicas(t *testing.T) {
	for _, c := range []struct{ workers, want int }{{8, 4}, {4, 4}, {3, 3}, {0, 1}} {
		srv := fixtureServer(t, FedAvg{}, c.workers) // K = 4
		if len(srv.nets) != c.want || len(srv.accs) != c.want || len(srv.scratch) != c.want {
			t.Fatalf("Workers %d, K 4: %d replicas, %d accumulators, %d scratch sets; want %d each",
				c.workers, len(srv.nets), len(srv.accs), len(srv.scratch), c.want)
		}
		srv.RunRound(0)
	}
}
