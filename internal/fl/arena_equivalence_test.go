package fl

import (
	"runtime"
	"testing"

	"heteroswitch/internal/dataset"
	"heteroswitch/internal/frand"
	"heteroswitch/internal/israce"
	"heteroswitch/internal/nn"
	"heteroswitch/internal/tensor"
	"heteroswitch/internal/vec"
)

// arenaTestNet builds the small conv net used by the arena A/B tests.
func arenaTestNet(seed uint64) *nn.Network {
	r := frand.New(seed)
	return nn.NewNetwork(
		nn.NewConv2D(r, 1, 4, 3, 1, 1, 1),
		nn.NewBatchNorm2D(4, vec.ActIdentity),
		nn.NewReLU(),
		nn.NewMaxPool2D(2, 2),
		nn.NewFlatten(),
		nn.NewDense(r, 4*4*4, 8),
		nn.NewReLU(),
		nn.NewDense(r, 8, 3),
	)
}

func arenaTestData(seed uint64, n int) *dataset.Dataset {
	r := frand.New(seed)
	ds := &dataset.Dataset{NumClasses: 3}
	for i := 0; i < n; i++ {
		ds.Samples = append(ds.Samples, dataset.Sample{
			X: tensor.Randn(r, 0.5, 1, 8, 8), Label: i % 3,
		})
	}
	return ds
}

// The acceptance criterion of the zero-allocation hot path: training with
// the arena enabled (default) must produce bit-identical weights to training
// with the arena disabled — same ops, same order, just recycled buffers.
// 22 samples against batch size 8 leaves a short tail batch, so the arena
// recycles across two tensor shapes per epoch.
func TestTrainLocalArenaBitIdenticalWeights(t *testing.T) {
	cfg := Config{
		Rounds: 1, ClientsPerRound: 1, BatchSize: 8, LocalEpochs: 3,
		LR: 0.05, Seed: 1,
	}
	ds := arenaTestData(21, 22)

	withArena := arenaTestNet(9)
	noArena := arenaTestNet(9)
	noArena.SetArena(nil)

	lossA := TrainLocal(withArena, ds, cfg, nn.SoftmaxCrossEntropy{}, frand.New(4), nil, nil)
	lossB := TrainLocal(noArena, ds, cfg, nn.SoftmaxCrossEntropy{}, frand.New(4), nil, nil)
	if lossA != lossB {
		t.Fatalf("train losses diverged: %v (arena) vs %v (no arena)", lossA, lossB)
	}

	wa, wb := withArena.Snapshot(), noArena.Snapshot()
	for i := range wa.Params {
		if !wa.Params[i].AllClose(wb.Params[i], 0) {
			t.Fatalf("param %d not bit-identical with arena enabled", i)
		}
	}
	for i := range wa.States {
		if !wa.States[i].AllClose(wb.States[i], 0) {
			t.Fatalf("state %d not bit-identical with arena enabled", i)
		}
	}
}

// A client's short final batch runs in the full batch's arena buffers: 27
// samples at batch size 10 train as 10, 10, 7 per epoch, bit-identically to a
// network without an arena, and once the first full batch has warmed the
// arena up the first 7-then-10 sequence of train steps allocates no activation
// (it used to allocate the whole set again per distinct batch size).
func TestTrainLocalPartialBatchReusesArena(t *testing.T) {
	cfg := Config{
		Rounds: 1, ClientsPerRound: 1, BatchSize: 10, LocalEpochs: 2,
		LR: 0.05, Seed: 1,
	}
	ds := arenaTestData(23, 27)
	withArena := arenaTestNet(9)
	noArena := arenaTestNet(9)
	noArena.SetArena(nil)
	lossA := TrainLocal(withArena, ds, cfg, nn.SoftmaxCrossEntropy{}, frand.New(4), nil, nil)
	lossB := TrainLocal(noArena, ds, cfg, nn.SoftmaxCrossEntropy{}, frand.New(4), nil, nil)
	if lossA != lossB {
		t.Fatalf("train losses diverged: %v (arena) vs %v (no arena)", lossA, lossB)
	}
	requireWeightsBitIdentical(t, "10-10-7 batches, arena vs none", withArena.Snapshot(), noArena.Snapshot())

	if israce.Enabled {
		return // sync.Pool drops items randomly under -race; alloc counts are nondeterministic
	}
	r := frand.New(5)
	net := arenaTestNet(9)
	step := func(x, dy *tensor.Tensor) {
		net.Forward(x, true)
		net.Backward(dy)
	}
	x10, x7 := tensor.Randn(r, 0.5, 10, 1, 8, 8), tensor.Randn(r, 0.5, 7, 1, 8, 8)
	dy10, dy7 := tensor.Randn(r, 1, 10, 3), tensor.Randn(r, 1, 7, 3)
	step(x10, dy10)
	// The first batch of 7 is the measured call: no warm-up run of its own.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	step(x7, dy7)
	step(x10, dy10)
	runtime.ReadMemStats(&after)
	// Network.Backward keeps one detached copy of the input gradient per batch
	// size, outside the arena: a header, a shape and a buffer for the new 7.
	const dxCopy = 3
	if n := after.Mallocs - before.Mallocs; n > dxCopy {
		t.Fatalf("the first 7-then-10 batch sequence after a batch of 10 allocates %d objects, want the input-gradient copy's %d", n, dxCopy)
	}
}

// Same criterion on the multi-label path (dense targets through
// BCEWithLogits and the pooled y-buffer in batchScratch).
func TestTrainLocalArenaBitIdenticalMultiLabel(t *testing.T) {
	cfg := Config{
		Rounds: 1, ClientsPerRound: 1, BatchSize: 4, LocalEpochs: 2,
		LR: 0.05, Seed: 1,
	}
	r := frand.New(31)
	ds := &dataset.Dataset{NumClasses: 3}
	for i := 0; i < 10; i++ {
		multi := make([]float32, 3)
		multi[i%3] = 1
		ds.Samples = append(ds.Samples, dataset.Sample{
			X: tensor.Randn(r, 0.5, 1, 8, 8), Label: -1, Multi: multi,
		})
	}

	withArena := arenaTestNet(13)
	noArena := arenaTestNet(13)
	noArena.SetArena(nil)
	TrainLocal(withArena, ds, cfg, nn.BCEWithLogits{}, frand.New(6), nil, nil)
	TrainLocal(noArena, ds, cfg, nn.BCEWithLogits{}, frand.New(6), nil, nil)

	wa, wb := withArena.Snapshot(), noArena.Snapshot()
	for i := range wa.Params {
		if !wa.Params[i].AllClose(wb.Params[i], 0) {
			t.Fatalf("param %d not bit-identical on multi-label path", i)
		}
	}
}

// EvalLoss on the pooled scratch path must agree exactly with a network
// running without any arena.
func TestEvalLossArenaBitIdentical(t *testing.T) {
	ds := arenaTestData(41, 11)
	withArena := arenaTestNet(15)
	noArena := arenaTestNet(15)
	noArena.SetArena(nil)
	la := EvalLoss(withArena, nn.SoftmaxCrossEntropy{}, ds, 4)
	lb := EvalLoss(noArena, nn.SoftmaxCrossEntropy{}, ds, 4)
	if la != lb {
		t.Fatalf("EvalLoss diverged: %v (arena) vs %v (no arena)", la, lb)
	}
}

// A reset accumulator must behave exactly like a freshly constructed one —
// the contract that lets the server keep one accumulator (and its model-sized
// float64 sum buffers) for its whole lifetime — for every strategy.
func TestFedAvgAccumulatorResetMatchesFresh(t *testing.T) {
	for i, s := range allStrategies() {
		r := frand.New(77)
		round1 := randResults(r, 5, 12)
		round2 := randResults(r, 7, 12)
		global := round1[0].Weights.Zero()
		next := randWeightsLike(r, global, 1)

		pooled := s.NewAccumulator(global, Default())
		for _, res := range round1 {
			pooled.Fold(res, 1)
		}
		_ = finalize(pooled, global)
		pooled.Reset(next)
		for _, res := range round2 {
			pooled.Fold(res, 1)
		}
		got := finalize(pooled, next)

		fresh := allStrategies()[i].NewAccumulator(next, Default())
		for _, res := range round2 {
			fresh.Fold(res, 1)
		}
		requireWeightsBitIdentical(t, s.Name()+": reset vs fresh accumulator", got, finalize(fresh, next))
	}
}

// A reset-to-empty accumulator must report "no update", keeping the (new)
// global weights.
func TestResetAccumulatorEmptyRound(t *testing.T) {
	global := nn.Weights{Params: []*tensor.Tensor{tensor.Full(3, 4)}}
	acc := FedAvg{}.NewAccumulator(global, Default())
	acc.Fold(ClientResult{
		NumSamples: 2,
		Weights:    nn.Weights{Params: []*tensor.Tensor{tensor.Full(9, 4)}},
	}, 1)
	_ = finalize(acc, global)
	next := nn.Weights{Params: []*tensor.Tensor{tensor.Full(5, 4)}}
	acc.Reset(next)
	if out := finalize(acc, next); !sharesStorage(out, next) {
		t.Fatal("reset accumulator with no results did not keep the new global weights")
	}
}
