package core

import (
	"testing"

	"heteroswitch/internal/fl"
	"heteroswitch/internal/frand"
	"heteroswitch/internal/nn"
	"heteroswitch/internal/tensor"
)

// TestSWADAverageMatchesManual verifies Algorithm 1's line 17 arithmetic:
// after k batches the SWAD weights equal the running mean of the post-step
// weights (the initial copy is fully replaced by the first update).
func TestSWADAverageMatchesManual(t *testing.T) {
	clients, _ := toyPopulation(61)
	client := clients[0]
	cfg := fl.Config{Rounds: 1, ClientsPerRound: 1, BatchSize: 4, LocalEpochs: 2, LR: 0.05, Seed: 1, Workers: 1}

	build := func() *nn.Network {
		r := frand.New(99)
		return nn.NewNetwork(nn.NewFlatten(), nn.NewDense(r, 16, 2))
	}

	// Manual run: record post-step snapshots with a batch hook.
	netA := build()
	var snaps []nn.Weights
	lossA := fl.TrainLocal(netA, client.Data, cfg, nn.SoftmaxCrossEntropy{}, frand.New(3), nil,
		func(n *nn.Network, idx int) { snaps = append(snaps, n.Snapshot()) })
	_ = lossA
	manual := snaps[0].Clone()
	for i := 1; i < len(snaps); i++ {
		manual.Lerp(float32(1.0/float64(i+1)), snaps[i])
	}

	// HeteroSwitch run with Switch1 and Switch2 forced on (huge LEMA) and an
	// identity transform so the data stream matches the manual run.
	hs := New()
	hs.Transform = func(x *tensor.Tensor, rng *frand.RNG) {}
	hs.mu.Lock()
	hs.lema = 1e9
	hs.hasLEMA = true
	hs.mu.Unlock()

	netB := build()
	ctx := &fl.ClientContext{
		Net: netB, Global: netB.Snapshot(), Client: client, Cfg: cfg,
		Loss: nn.SoftmaxCrossEntropy{}, Round: 0, RNG: frand.New(3),
	}
	res := hs.LocalUpdate(ctx)

	for i := range manual.Params {
		if !res.Weights.Params[i].AllClose(manual.Params[i], 1e-5) {
			t.Fatalf("SWAD average deviates from manual running mean at param %d", i)
		}
	}
}

// TestTransformDeterministicPerRound: two identical updates
// must produce identical transformed data and weights.
func TestTransformDeterministicPerRound(t *testing.T) {
	clients, _ := toyPopulation(71)
	client := clients[0]
	cfg := fl.Config{Rounds: 1, ClientsPerRound: 1, BatchSize: 4, LocalEpochs: 1, LR: 0.05, Seed: 1, Workers: 1}
	run := func() fl.ClientResult {
		hs := New()
		hs.mu.Lock()
		hs.lema = 1e9
		hs.hasLEMA = true
		hs.mu.Unlock()
		r := frand.New(55)
		net := nn.NewNetwork(nn.NewFlatten(), nn.NewDense(r, 16, 2))
		ctx := &fl.ClientContext{
			Net: net, Global: net.Snapshot(), Client: client, Cfg: cfg,
			Loss: nn.SoftmaxCrossEntropy{}, Round: 3, RNG: client.RoundRNG(3),
		}
		return hs.LocalUpdate(ctx)
	}
	a, b := run(), run()
	for i := range a.Weights.Params {
		if !a.Weights.Params[i].AllClose(b.Weights.Params[i], 0) {
			t.Fatal("HeteroSwitch update not deterministic")
		}
	}
}

// TestSwitch2RequiresSwitch1: when Switch 1 is off, Switch 2 can never adopt
// SWAD weights even if the train loss beats the EMA (Algorithm 1 line 22).
func TestSwitch2RequiresSwitch1(t *testing.T) {
	clients, _ := toyPopulation(81)
	client := clients[0]
	cfg := fl.Config{Rounds: 1, ClientsPerRound: 1, BatchSize: 4, LocalEpochs: 1, LR: 0.05, Seed: 1, Workers: 1}

	build := func() *nn.Network {
		r := frand.New(31)
		return nn.NewNetwork(nn.NewFlatten(), nn.NewDense(r, 16, 2))
	}

	// LEMA strictly between L_init and L_train is impossible to arrange
	// robustly, so instead: set LEMA below L_init (Switch1 off). Even though
	// TrainLocal may drive L_train below LEMA, the result must equal plain
	// FedAvg training (no SWAD adoption).
	hs := New()
	hs.mu.Lock()
	hs.lema = 1e-9
	hs.hasLEMA = true
	hs.mu.Unlock()
	netA := build()
	ctxA := &fl.ClientContext{Net: netA, Global: netA.Snapshot(), Client: client, Cfg: cfg,
		Loss: nn.SoftmaxCrossEntropy{}, Round: 0, RNG: frand.New(9)}
	resA := hs.LocalUpdate(ctxA)

	netB := build()
	ctxB := &fl.ClientContext{Net: netB, Global: netB.Snapshot(), Client: client, Cfg: cfg,
		Loss: nn.SoftmaxCrossEntropy{}, Round: 0, RNG: frand.New(9)}
	resB := fl.FedAvg{}.LocalUpdate(ctxB)

	for i := range resA.Weights.Params {
		if !resA.Weights.Params[i].AllClose(resB.Weights.Params[i], 1e-7) {
			t.Fatal("Switch 2 fired without Switch 1")
		}
	}
}
