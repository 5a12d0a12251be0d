package heteroswitch

// Cross-package integration tests: end-to-end paths that no single package
// test covers, exercised at small scale.

import (
	"math"
	"testing"

	"heteroswitch/internal/core"
	"heteroswitch/internal/dataset"
	"heteroswitch/internal/device"
	"heteroswitch/internal/experiments"
	"heteroswitch/internal/fl"
	"heteroswitch/internal/frand"
	"heteroswitch/internal/metrics"
	"heteroswitch/internal/nn"
	"heteroswitch/internal/scene"
	"heteroswitch/internal/tensor"
)

// TestSceneToTrainingPipeline covers the full vision path: scene → sensor →
// ISP → tensor → federated training → evaluation, asserting the model
// actually learns the 12-class problem above chance.
func TestSceneToTrainingPipeline(t *testing.T) {
	opts := experiments.DefaultOptions()
	opts.Seed = 5
	dd, err := experiments.BuildDeviceData(opts, 4, 2, dataset.ModeProcessed)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fl.Config{
		Rounds: 30, ClientsPerRound: 9, BatchSize: 10, LocalEpochs: 1,
		LR: 0.1, Seed: 5, Workers: 4,
	}
	tr, _, err := experiments.NewFL(opts, fl.FedAvg{}, dd.Train, experiments.EqualCounts(9, 18), cfg,
		experiments.SimpleCNNBuilder(5, dd.Classes), nn.SoftmaxCrossEntropy{})
	if err != nil {
		t.Fatal(err)
	}
	score := experiments.Evaluate(tr, fl.FedAvg{}.Name(), []*dataset.Dataset{dd.AllTest()}, nil)
	if acc := score.PerDevice[0]; acc < 0.25 { // chance is 1/12 ≈ 8.3%
		t.Fatalf("federated model failed to learn: accuracy %v", acc)
	}
}

// TestHeteroSwitchRunsOnRealWorkload runs HeteroSwitch for 20 rounds on a
// captured device population: its L_EMA initializes, no weight turns NaN,
// and the global model learns (accuracy at least 0.15).
func TestHeteroSwitchRunsOnRealWorkload(t *testing.T) {
	opts := experiments.DefaultOptions()
	opts.Seed = 9
	dd, err := experiments.BuildDeviceData(opts, 3, 2, dataset.ModeProcessed)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fl.Config{
		Rounds: 20, ClientsPerRound: 9, BatchSize: 10, LocalEpochs: 1,
		LR: 0.1, Seed: 9, Workers: 4,
	}
	hs := core.New()
	tr, _, err := experiments.NewFL(opts, hs, dd.Train, experiments.EqualCounts(9, 18), cfg,
		experiments.SimpleCNNBuilder(9, dd.Classes), nn.SoftmaxCrossEntropy{})
	if err != nil {
		t.Fatal(err)
	}
	score := experiments.Evaluate(tr, hs.Name(), []*dataset.Dataset{dd.AllTest()}, nil)
	if _, has := hs.LEMA(); !has {
		t.Fatal("L_EMA never initialized on the vision workload")
	}
	for _, p := range tr.GlobalNet().Snapshot().Params {
		if p.HasNaN() {
			t.Fatal("HeteroSwitch diverged on the vision workload")
		}
	}
	if acc := score.PerDevice[0]; acc < 0.15 {
		t.Fatalf("HeteroSwitch failed to learn: %v", acc)
	}
}

// TestDevicePipelineIsolatesSystemHeterogeneity asserts the paper's §3.1
// protocol property end-to-end: identical latent scenes through two devices
// differ, but the same device with the same RNG reproduces bit-identical
// tensors.
func TestDevicePipelineIsolatesSystemHeterogeneity(t *testing.T) {
	gen := scene.NewImageNet12(64)
	scenes := gen.RenderSet(1, frand.New(3))[:3]
	s9, err := device.ByName("S9")
	if err != nil {
		t.Fatal(err)
	}
	g4, err := device.ByName("G4")
	if err != nil {
		t.Fatal(err)
	}
	sets, err := dataset.CaptureDevices(scenes, []*device.Profile{s9, s9, g4}, dataset.ModeProcessed, 32, 12,
		[]int{0, 0, 1}, []*frand.RNG{frand.New(1), frand.New(1), frand.New(1)}, 2)
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := sets[0], sets[1], sets[2]
	for i := range a.Samples {
		if !a.Samples[i].X.AllClose(b.Samples[i].X, 0) {
			t.Fatal("same device+seed must reproduce identical tensors")
		}
		if a.Samples[i].X.AllClose(c.Samples[i].X, 1e-4) {
			t.Fatal("different devices produced identical tensors — no heterogeneity")
		}
	}
}

// TestStrategiesAgreeOnDegenerateRound: with one client and full
// participation, FedAvg and HeteroSwitch (before its EMA initializes, so
// switches stay off) must produce identical global weights after one round.
func TestStrategiesAgreeOnDegenerateRound(t *testing.T) {
	r := frand.New(7)
	ds := &dataset.Dataset{NumClasses: 2}
	for i := 0; i < 8; i++ {
		x := experimentsTensor(r, i%2)
		ds.Samples = append(ds.Samples, dataset.Sample{X: x, Label: i % 2})
	}
	perDevice := map[int]*dataset.Dataset{0: ds}
	builder := func() *nn.Network {
		rr := frand.New(11)
		return nn.NewNetwork(nn.NewFlatten(), nn.NewDense(rr, 16, 2))
	}
	run := func(strat fl.Strategy) nn.Weights {
		clients, err := fl.BuildPopulation(perDevice, []int{1}, 3)
		if err != nil {
			t.Fatal(err)
		}
		cfg := fl.Config{Rounds: 1, ClientsPerRound: 1, BatchSize: 4, LocalEpochs: 1, LR: 0.1, Seed: 3, Workers: 1}
		srv, err := fl.NewServer(cfg, builder, nn.SoftmaxCrossEntropy{}, strat, clients)
		if err != nil {
			t.Fatal(err)
		}
		srv.Run(nil)
		return srv.Global
	}
	a := run(fl.FedAvg{})
	b := run(core.New())
	for i := range a.Params {
		if !a.Params[i].AllClose(b.Params[i], 1e-7) {
			t.Fatal("HeteroSwitch with uninitialized EMA should equal FedAvg")
		}
	}
}

func experimentsTensor(r *frand.RNG, label int) *tensor.Tensor {
	x := tensor.New(1, 4, 4)
	base := float32(0.2 + 0.6*float64(label))
	d := x.Data()
	for i := range d {
		d[i] = base + float32(r.NormFloat64()*0.05)
	}
	return x
}

// TestMetricsOnKnownModel pins the metric math against a hand-built model.
func TestMetricsOnKnownModel(t *testing.T) {
	vals := []float64{0.6, 0.8}
	if metrics.Mean(vals) != 0.7 || metrics.Worst(vals) != 0.6 {
		t.Fatal("metrics basics broken")
	}
	if math.Abs(metrics.Variance([]float64{60, 80})-100) > 1e-9 {
		t.Fatal("variance in pp² broken")
	}
}
