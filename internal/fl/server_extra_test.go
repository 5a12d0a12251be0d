package fl

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"slices"
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

func TestCheckpointRoundtrip(t *testing.T) {
	srv := fixtureServer(t, FedAvg{}, 1)
	srv.Run(nil)
	var buf bytes.Buffer
	if err := srv.SaveCheckpoint(&buf, 17); err != nil {
		t.Fatal(err)
	}
	// Fresh server, restore.
	srv2 := fixtureServer(t, FedAvg{}, 1)
	round, err := srv2.LoadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if round != 17 {
		t.Fatalf("restored round %d", round)
	}
	for i := range srv.Global.Params {
		if !srv.Global.Params[i].AllClose(srv2.Global.Params[i], 0) {
			t.Fatal("checkpoint weights differ after restore")
		}
	}
}

func TestCheckpointRejectsWrongArchitecture(t *testing.T) {
	srv := fixtureServer(t, FedAvg{}, 1)
	var buf bytes.Buffer
	// Write a checkpoint with a different architecture's weights.
	other := nn.NewNetwork(nn.NewFlatten())
	_ = other
	bogus := nn.Weights{}
	var hdr [8]byte
	buf.Write(hdr[:])
	if _, err := bogus.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.LoadCheckpoint(&buf); err == nil {
		t.Fatal("incompatible checkpoint accepted")
	}
}

func TestCheckpointTruncated(t *testing.T) {
	srv := fixtureServer(t, FedAvg{}, 1)
	if _, err := srv.LoadCheckpoint(bytes.NewReader([]byte{1, 2})); err == nil {
		t.Fatal("truncated checkpoint accepted")
	}
}
