package fl

import (
	"testing"

	"heteroswitch/internal/dataset"
	"heteroswitch/internal/frand"
	"heteroswitch/internal/nn"
	"heteroswitch/internal/tensor"
)

// convClients builds k clients with conv-sized samples so client training
// exercises the conv and dense kernels.
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

// newConvServer builds a small conv federation for round-level tests.
func newConvServer(t *testing.T) *Server {
	t.Helper()
	cfg := Config{
		Rounds: 3, ClientsPerRound: 6, BatchSize: 4, LocalEpochs: 1,
		LR: 0.1, Seed: 5, Workers: 2,
	}
	srv, err := NewServer(cfg, convBuilder, nn.SoftmaxCrossEntropy{}, FedAvg{}, convClients(8, 8))
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestFinalizeRecyclingRetention locks the recycling invariant of the
// engine's finalize: a replaced global's buffer returns to the version store
// and a later finalize writes into it, so a GlobalNet handed out before must
// be a copy that later rounds leave unaffected, over enough rounds for a
// recycled buffer to be written again.
func TestFinalizeRecyclingRetention(t *testing.T) {
	srv := newConvServer(t)
	srv.RunRound(0)

	// Capture what an external consumer could retain at round 0.
	gnet := srv.GlobalNet()
	snap := srv.Global.Clone()

	// Two more rounds: the recycled buffer written in round 2 is the weight
	// set that was global at the end of round 0.
	srv.RunRound(1)
	srv.RunRound(2)

	requireWeightsBitIdentical(t, "GlobalNet copy after recycling", gnet.Snapshot(), snap)
}
