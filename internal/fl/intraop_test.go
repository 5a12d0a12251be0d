package fl

import (
	"bytes"
	"fmt"
	"testing"

	"heteroswitch/internal/dataset"
	"heteroswitch/internal/frand"
	"heteroswitch/internal/nn"
	"heteroswitch/internal/tensor"
)

// convClients builds k clients with conv-sized samples so client training
// exercises the parallelized conv and dense kernels.
func convClients(k, samplesEach int) []*Client {
	r := frand.New(321)
	clients := make([]*Client, k)
	for i := range clients {
		ds := &dataset.Dataset{NumClasses: 4}
		for j := 0; j < samplesEach; j++ {
			ds.Samples = append(ds.Samples, dataset.Sample{
				X: tensor.Randn(r, 0.5, 3, 12, 12), Label: j % 4,
			})
		}
		clients[i] = NewClient(i, 0, ds, 99)
	}
	return clients
}

func convBuilder() *nn.Network {
	br := frand.New(7)
	return nn.NewNetwork(
		nn.NewConv2D(br, 3, 8, 3, 1, 1, 1),
		nn.NewReLU(),
		nn.NewFlatten(),
		nn.NewDense(br, 8*12*12, 32),
		nn.NewReLU(),
		nn.NewDense(br, 32, 4),
	)
}

func requireWeightsBitIdentical(t *testing.T, name string, got, want nn.Weights) {
	t.Helper()
	if len(got.Params) != len(want.Params) || len(got.States) != len(want.States) {
		t.Fatalf("%s: weight counts differ", name)
	}
	check := func(kind string, i int, g, w *tensor.Tensor) {
		gd, wd := g.Data(), w.Data()
		if len(gd) != len(wd) {
			t.Fatalf("%s: %s %d size %d != %d", name, kind, i, len(gd), len(wd))
		}
		for j := range gd {
			if gd[j] != wd[j] {
				t.Fatalf("%s: %s %d element %d differs: %v != %v (must be bit-identical)",
					name, kind, i, j, gd[j], wd[j])
			}
		}
	}
	for i := range got.Params {
		check("param", i, got.Params[i], want.Params[i])
	}
	for i := range got.States {
		check("state", i, got.States[i], want.States[i])
	}
}

// TestTrainLocalIntraOpBitIdentical trains the same client twice — serial
// kernels vs an intra-op budget — and requires bit-identical weights: the
// budget is a pure speed knob.
func TestTrainLocalIntraOpBitIdentical(t *testing.T) {
	ds := convClients(1, 20)[0].Data
	cfg := Config{
		Rounds: 1, ClientsPerRound: 1, BatchSize: 5, LocalEpochs: 2,
		LR: 0.05, Seed: 1,
	}
	serial := convBuilder()
	parl := convBuilder()
	parl.SetIntraOp(4)
	TrainLocal(serial, ds, cfg, nn.SoftmaxCrossEntropy{}, frand.New(3), nil, nil)
	TrainLocal(parl, ds, cfg, nn.SoftmaxCrossEntropy{}, frand.New(3), nil, nil)
	requireWeightsBitIdentical(t, "TrainLocal intraop=4 vs serial", parl.Snapshot(), serial.Snapshot())
}

// newConvServer builds a small conv federation for round-level tests.
func newConvServer(t *testing.T, workers, intraOp int) *Server {
	t.Helper()
	cfg := Config{
		Rounds: 3, ClientsPerRound: 6, BatchSize: 4, LocalEpochs: 1,
		LR: 0.1, Seed: 5, Workers: workers, IntraOp: intraOp,
	}
	srv, err := NewServer(cfg, convBuilder, nn.SoftmaxCrossEntropy{}, FedAvg{}, convClients(8, 8))
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestServerRoundNestedIntraOpBitIdentical runs the shard-parallel streaming
// round with intra-op kernels enabled inside the client workers — nested
// parallelism — and requires globals bit-identical to the all-serial run.
// Running this test under -race additionally validates the pool dispatch
// from concurrent worker goroutines (the CI race lane does).
func TestServerRoundNestedIntraOpBitIdentical(t *testing.T) {
	serial := newConvServer(t, 2, 1)
	nested := newConvServer(t, 2, 8) // share of 4 per worker
	for round := 0; round < 3; round++ {
		serial.RunRound(round)
		nested.RunRound(round)
		requireWeightsBitIdentical(t, fmt.Sprintf("round %d global", round), nested.Global, serial.Global)
	}
}

// TestIntraOpShare pins the core-budget token arithmetic: equal shares of
// the total, floored at 1, with the full budget for a single worker.
func TestIntraOpShare(t *testing.T) {
	cases := []struct {
		total, workers, want int
	}{
		{8, 2, 4},
		{8, 1, 8},
		{8, 3, 2},
		{2, 4, 1},
		{1, 1, 1},
		{1, 8, 1},
	}
	for _, c := range cases {
		if got := intraOpShare(Config{IntraOp: c.total}, c.workers); got != c.want {
			t.Fatalf("intraOpShare(total=%d, workers=%d)=%d, want %d", c.total, c.workers, got, c.want)
		}
	}
	// Auto budget is GOMAXPROCS-derived and must be at least 1.
	if got := intraOpShare(Config{}, 1); got < 1 {
		t.Fatalf("auto share %d < 1", got)
	}
}

// TestFinalizeRecyclingRetention locks the double-buffered Finalize
// invariant: weight sets handed out before the recycled buffer cycles back —
// checkpoint serializations and GlobalNet copies — must be unaffected by
// later rounds, over enough rounds for the ping-pong buffers to be reused
// twice.
func TestFinalizeRecyclingRetention(t *testing.T) {
	srv := newConvServer(t, 2, 1)
	srv.RunRound(0)

	// Capture everything an external consumer could retain at round 0.
	var ckpt bytes.Buffer
	if err := srv.SaveCheckpoint(&ckpt, 0); err != nil {
		t.Fatal(err)
	}
	gnet := srv.GlobalNet()
	snap := srv.Global.Clone()

	// Two more rounds: the recycled buffer written in round 2 is the weight
	// set that was global at the end of round 0.
	srv.RunRound(1)
	srv.RunRound(2)

	requireWeightsBitIdentical(t, "GlobalNet copy after recycling", gnet.Snapshot(), snap)
	restore := newConvServer(t, 2, 1)
	round, err := restore.LoadCheckpoint(&ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if round != 0 {
		t.Fatalf("checkpoint round %d, want 0", round)
	}
	requireWeightsBitIdentical(t, "checkpoint after recycling", restore.Global, snap)
}
