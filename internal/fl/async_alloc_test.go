package fl

import (
	"runtime"
	"testing"

	"heteroswitch/internal/frand"
	"heteroswitch/internal/israce"
	"heteroswitch/internal/nn"
	"heteroswitch/internal/simclock"
)

// sweepTrainer stands in for local training with one deterministic sweep
// w -= s·w over the parameters, so a window costs what the engine costs.
type sweepTrainer struct{ FedAvg }

func (sweepTrainer) LocalUpdate(ctx *ClientContext) ClientResult {
	s := float32(1e-3 * float64(1+(ctx.Client.ID+ctx.Round)%7))
	for _, p := range ctx.Net.Params() {
		d := p.W.Data()
		for i, v := range d {
			d[i] = v - s*v
		}
	}
	return ClientResult{
		ClientID: ctx.Client.ID, DeviceIdx: ctx.Client.Device,
		NumSamples: ctx.Client.Data.Len(),
		Weights:    ctx.SnapshotWeights(),
		TrainLoss:  1, InitLoss: 1,
	}
}

// sweepNet is the MLP the allocation tests run: 19 458 parameters, 78 KB a
// weight set.
func sweepNet() *nn.Network {
	r := frand.New(5)
	return nn.NewNetwork(nn.NewFlatten(), nn.NewDense(r, 16, 1024), nn.NewReLU(), nn.NewDense(r, 1024, 2))
}

// windowAllocs returns the mallocs and bytes of one warm window of a
// straggler-tail async run with the given replica count and buffer, and the
// size of one weight set.
func windowAllocs(t *testing.T, workers, buffer int) (allocs float64, bytes uint64, model int64) {
	t.Helper()
	perDevice := fixtureData(4*buffer, 3)
	clients, err := BuildPopulation(perDevice, []int{2 * buffer, 2 * buffer}, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Rounds: 1, ClientsPerRound: buffer, BatchSize: 1, LocalEpochs: 1,
		LR: 0.1, Seed: 3, Workers: workers,
	}
	srv, err := NewAsyncServer(cfg, sweepNet, nn.SoftmaxCrossEntropy{}, sweepTrainer{}, clients, AsyncConfig{
		Staleness:   PolynomialStaleness{Alpha: 0.5},
		Latency:     simclock.StragglerTail{Lo: 0.5, Hi: 2, TailProb: 0.15, TailFactor: 8, Seed: 3},
		Concurrency: 2 * buffer,
		Buffer:      buffer,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		srv.RunRound()
	}
	const runs = 20
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	allocs = testing.AllocsPerRun(runs, func() { srv.RunRound() })
	runtime.ReadMemStats(&m1)
	return allocs, (m1.TotalAlloc - m0.TotalAlloc) / (runs + 1), srv.wb
}

// A warm window on two replicas allocates what the same window on one does
// plus the helper goroutine: the plan, the client index, the scratch ring and
// the execute state are reused, so nothing grows with Buffer, and no
// model-sized buffer is allocated at either replica count. (What one window
// allocates at all is the steps' own small slices and the stats lists.)
func TestAsyncWindowAllocations(t *testing.T) {
	if israce.Enabled {
		t.Skip("the race detector allocates")
	}
	for _, buffer := range []int{8, 64} {
		a1, b1, model := windowAllocs(t, 1, buffer)
		a2, b2, _ := windowAllocs(t, 2, buffer)
		if a2-a1 > 2 {
			t.Errorf("buffer %d: a window allocates %.1f times on two replicas, %.1f on one", buffer, a2, a1)
		}
		if int64(max(b1, b2)) >= model {
			t.Errorf("buffer %d: a window allocates %d bytes on one replica, %d on two; a weight set is %d",
				buffer, b1, b2, model)
		}
	}
}

// roundAllocs returns the bytes one warm barrier round allocates with the
// given worker count and K, and the size of one weight set.
func roundAllocs(t *testing.T, workers, k int) (bytes uint64, model int64) {
	t.Helper()
	clients, err := BuildPopulation(fixtureData(2*k, 3), []int{k, k}, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Rounds: 1, ClientsPerRound: k, BatchSize: 1, LocalEpochs: 1,
		LR: 0.1, Seed: 3, Workers: workers,
	}
	srv, err := NewServer(cfg, sweepNet, nn.SoftmaxCrossEntropy{}, sweepTrainer{}, clients)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		srv.RunRound(r)
	}
	const runs = 20
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for r := 0; r < runs; r++ {
		srv.RunRound(4 + r)
	}
	runtime.ReadMemStats(&m1)
	return (m1.TotalAlloc - m0.TotalAlloc) / runs, srv.wb
}

// A warm barrier round allocates less than one weight set: each worker
// trains into its own scratch set, and the new global is written into the
// buffer of a replaced one, so the round's allocations are its small lists.
func TestServerRoundAllocations(t *testing.T) {
	if israce.Enabled {
		t.Skip("the race detector allocates")
	}
	for _, workers := range []int{1, 2} {
		if b, model := roundAllocs(t, workers, 8); int64(b) >= model {
			t.Errorf("workers %d: a round allocates %d bytes; a weight set is %d", workers, b, model)
		}
	}
}
