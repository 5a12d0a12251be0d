package experiments

import (
	"strings"
	"testing"

	"heteroswitch/internal/dataset"
	"heteroswitch/internal/fl"
	"heteroswitch/internal/frand"
	"heteroswitch/internal/nn"
	"heteroswitch/internal/serve"
	"heteroswitch/internal/simclock"
	"heteroswitch/internal/tensor"
	"heteroswitch/internal/vec"
)

// tinyTrainServeSpec is a synthetic train-while-serve workload small enough
// for the race lane: 2 device classes of random 1×8×8 captures, a conv+BN
// model, and a closed-loop serving stream under EDF flush.
func tinyTrainServeSpec(t *testing.T, intraop int) TrainServeSpec {
	t.Helper()
	const classes = 3
	r := frand.New(5)
	mk := func(n int) *dataset.Dataset {
		d := &dataset.Dataset{NumClasses: classes}
		for i := 0; i < n; i++ {
			d.Samples = append(d.Samples, dataset.Sample{
				X:     tensor.Randn(r, 0.5, 1, 8, 8),
				Label: i % classes,
			})
		}
		return d
	}
	perDevice := map[int]*dataset.Dataset{0: mk(12), 1: mk(12)}
	clients, err := fl.BuildPopulation(perDevice, []int{3, 3}, 7)
	if err != nil {
		t.Fatal(err)
	}
	builder := func() *nn.Network {
		br := frand.New(11)
		return nn.NewNetwork(
			nn.NewConv2D(br, 1, 4, 3, 1, 1, 1),
			nn.NewBatchNorm2D(4, vec.ActIdentity),
			nn.NewReLU(),
			nn.NewGlobalAvgPool(),
			nn.NewDense(br, 4, classes),
		)
	}
	inputs := make([]*tensor.Tensor, 8)
	for i := range inputs {
		inputs[i] = tensor.Randn(r, 0.5, 1, 8, 8)
	}
	trainer, err := fl.NewAsyncServer(fl.Config{
		Rounds: 10, ClientsPerRound: 4, BatchSize: 4, LocalEpochs: 1,
		LR: 0.2, Seed: 11, Workers: 1, IntraOp: intraop,
	}, builder, nn.SoftmaxCrossEntropy{}, fl.FedAvg{}, clients, fl.AsyncConfig{
		Staleness:   fl.PolynomialStaleness{Alpha: 0.5},
		Latency:     simclock.Uniform{Lo: 0.5, Hi: 2, Seed: 13},
		Concurrency: 8,
		Buffer:      4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return TrainServeSpec{
		Trainer: trainer,
		Builder: builder,
		Serve: serve.Config{
			MaxBatch: 4, BatchBudget: 0.2, Workers: 2, IntraOp: intraop,
			Flush:     serve.FlushEDF,
			Admission: serve.AdmissionConfig{Deadline: 20},
		},
		Load: serve.LoadConfig{
			Requests:    120,
			Concurrency: 6,
			Arrival:     serve.ClosedLoop{Think: 0.3, Seed: 17},
			Service:     serve.AffineService{Base: 0.5, PerItem: 0.125},
			Inputs:      inputs,
		},
	}
}

// The joint run must track staleness over every served request, publish one
// store version per installed global, and reproduce byte-for-byte across
// runs and intra-op budgets.
func TestRunTrainServeDeterminism(t *testing.T) {
	rep, err := RunTrainServe(tinyTrainServeSpec(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Windows == 0 || rep.Published == 0 {
		t.Fatalf("windows=%d published=%d; the trainer never published", rep.Windows, rep.Published)
	}
	if rep.Published > rep.Windows {
		t.Fatalf("published=%d > windows=%d", rep.Published, rep.Windows)
	}
	if rep.TrainTime <= 0 {
		t.Fatalf("train_vtime=%g; the virtual clock never advanced", rep.TrainTime)
	}
	if !rep.Serving.StaleTracked {
		t.Fatal("wired serving report did not track staleness")
	}
	var hist int64
	for _, c := range rep.Serving.StaleHist {
		hist += c
	}
	if hist != int64(rep.Serving.Served) {
		t.Fatalf("staleness histogram counts %d, served %d", hist, rep.Serving.Served)
	}
	s := rep.String()
	if !strings.Contains(s, "train windows=") || !strings.Contains(s, "staleness histogram:") {
		t.Fatalf("report rendering lost a block:\n%s", s)
	}

	again, err := RunTrainServe(tinyTrainServeSpec(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	if s != again.String() {
		t.Fatalf("train-serve replay diverged:\n%s\nvs\n%s", s, again)
	}
	wide, err := RunTrainServe(tinyTrainServeSpec(t, 5))
	if err != nil {
		t.Fatal(err)
	}
	if s != wide.String() {
		t.Fatalf("train-serve output varies with intra-op budget:\n%s\nvs\n%s", s, wide)
	}
}

// The registry harness runs end to end at small scale on the real device
// population, on DefaultOptions' async settings: the bytes heterobench
// prints with no -async flag. Scale 0.3 trains four windows, enough for the
// staleness discount to move them.
func TestTrainWhileServeHarness(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy: full device capture + FL run")
	}
	res, err := Run("train-serve", tinyOpts(0.3))
	if err != nil {
		t.Fatal(err)
	}
	rep, ok := res.(*TrainServeReport)
	if !ok {
		t.Fatalf("train-serve returned %T", res)
	}
	if rep.Published == 0 || !rep.Serving.StaleTracked {
		t.Fatalf("harness not wired: published=%d tracked=%v", rep.Published, rep.Serving.StaleTracked)
	}
	if !strings.Contains(rep.String(), "output_digest") {
		t.Fatalf("serving digest missing:\n%s", rep)
	}
	pinTable(t, rep, "449b853546e6af9dc5d4d00f8c3425e451fd16d17e68f2d1071fd4bef91025b5")
}
