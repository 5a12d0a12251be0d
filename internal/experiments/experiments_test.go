package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"heteroswitch/internal/core"
	"heteroswitch/internal/dataset"
	"heteroswitch/internal/device"
	"heteroswitch/internal/fl"
	"heteroswitch/internal/frand"
	"heteroswitch/internal/metrics"
	"heteroswitch/internal/nn"
)

func tinyOpts(scale float64) Options {
	opts := DefaultOptions()
	opts.Scale = scale
	opts.Seed = 42
	return opts
}

// pinTable fails unless the rendered table hashes to want (hex sha256), so a
// change to a harness's training or readout cannot move its bytes unnoticed.
func pinTable(t *testing.T, res fmt.Stringer, want string) {
	t.Helper()
	sum := sha256.Sum256([]byte(res.String()))
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("table digest %s, want %s:\n%s", got, want, res)
	}
}

func TestOptionsScaled(t *testing.T) {
	o := Options{Scale: 0.5}
	if o.scaled(10) != 5 {
		t.Fatalf("scaled(10) = %d", o.scaled(10))
	}
	if o.scaled(1) != 1 {
		t.Fatal("scaled must floor at 1")
	}
	o.Scale = 0.01
	if o.scaled(10) != 1 {
		t.Fatal("tiny scale must floor at 1")
	}
}

func TestRegistryNames(t *testing.T) {
	names := Names()
	want := []string{"fig1", "table2", "fig2", "fig3", "fig4", "fig5", "fig7",
		"table4", "table5", "table6", "fig8", "ecg", "fig9",
		"ablation-switch", "ablation-alpha", "ablation-degrees", "unseen-dg",
		"async-sweep", "train-serve"}
	have := map[string]bool{}
	for _, n := range names {
		have[n] = true
	}
	for _, w := range want {
		if !have[w] {
			t.Errorf("registry missing %q", w)
		}
	}
	if _, err := Run("nope", tinyOpts(0.1)); err == nil {
		t.Fatal("unknown experiment should error")
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{Title: "T", Header: []string{"a", "bb"}}
	tab.AddRow("xxx", "y")
	s := tab.String()
	if !strings.Contains(s, "T\n") || !strings.Contains(s, "xxx") || !strings.Contains(s, "bb") {
		t.Fatalf("table rendering broken:\n%s", s)
	}
}

func TestEqualCounts(t *testing.T) {
	c := EqualCounts(4, 10)
	total := 0
	for _, v := range c {
		total += v
		if v < 2 || v > 3 {
			t.Fatalf("unbalanced: %v", c)
		}
	}
	if total != 10 {
		t.Fatalf("sum %d", total)
	}
}

func TestBuildDeviceDataStructure(t *testing.T) {
	opts := tinyOpts(1)
	dd, err := BuildDeviceData(opts, 1, 1, dataset.ModeProcessed)
	if err != nil {
		t.Fatal(err)
	}
	if len(dd.Profiles) != 9 || dd.Classes != 12 {
		t.Fatalf("profiles %d classes %d", len(dd.Profiles), dd.Classes)
	}
	for i := range dd.Profiles {
		if dd.Train[i].Len() != 12 || dd.Test[i].Len() != 12 {
			t.Fatalf("device %d sizes %d/%d", i, dd.Train[i].Len(), dd.Test[i].Len())
		}
	}
	if dd.DeviceIndex("S9") < 0 || dd.DeviceIndex("nope") != -1 {
		t.Fatal("DeviceIndex broken")
	}
	if dd.AllTest().Len() != 9*12 {
		t.Fatalf("AllTest %d", dd.AllTest().Len())
	}
}

func TestBuildDeviceDataDeterministic(t *testing.T) {
	opts := tinyOpts(1)
	a, err := BuildDeviceData(opts, 1, 1, dataset.ModeProcessed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildDeviceData(opts, 1, 1, dataset.ModeProcessed)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Train[3].Samples[0].X.AllClose(b.Train[3].Samples[0].X, 0) {
		t.Fatal("device data not deterministic (parallel capture ordering?)")
	}
}

// unseen-dg's unseen devices photograph exactly the scenes behind
// BuildDeviceData's test sets, pixel for pixel. sceneSets' test scenes are
// those scenes: re-photographed by the Table-1 devices on BuildDeviceData's
// noise streams, after its train scenes, they give dd.Test bit for bit. And
// unseenTests' sets are those scenes re-photographed by its random devices
// on their own noise streams.
func TestUnseenDevicesPhotographTheTestScenes(t *testing.T) {
	for _, seed := range []uint64{1, 42} {
		opts := tinyOpts(0.1)
		opts.Seed = seed
		perTrain, perTest := opts.scaled(ablationWorkload.perClass), opts.scaled(PerClassTest)
		dd, err := BuildDeviceData(opts, perTrain, perTest, dataset.ModeProcessed)
		if err != nil {
			t.Fatal(err)
		}
		train, test, classes := sceneSets(seed, perTrain, perTest)
		tags := make([]int, len(dd.Profiles))
		rngs := make([]*frand.RNG, len(dd.Profiles))
		for i := range rngs {
			tags[i], rngs[i] = i, frand.New(seed^uint64(i+1)*0x9e3779b97f4a7c15)
		}
		again, err := dataset.CaptureDevices(append(train, test...), dd.Profiles, dataset.ModeProcessed, OutRes, classes, tags, rngs, 2)
		if err != nil {
			t.Fatal(err)
		}
		for i, ds := range again {
			got := &dataset.Dataset{Samples: ds.Samples[len(train):]}
			if sampleDigest(got) != sampleDigest(dd.Test[i]) {
				t.Fatalf("seed %d: %s's test set is not a capture of sceneSets' test scenes", seed, dd.Profiles[i].Name)
			}
		}

		drawn, unseen, err := unseenTests(opts)
		if err != nil {
			t.Fatal(err)
		}
		urng := frand.New(seed ^ 0x0ddba11)
		profs := make([]*device.Profile, len(drawn))
		tags, rngs = tags[:len(drawn)], rngs[:len(drawn)]
		for i, p := range drawn {
			profs[i] = device.Random(urng, p.Name)
			tags[i], rngs[i] = 100+i, urng.Split()
		}
		want, err := dataset.CaptureDevices(test, profs, dataset.ModeProcessed, OutRes, classes, tags, rngs, 2)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range profs {
			if len(unseen[i].Samples) != len(test) || sampleDigest(unseen[i]) != sampleDigest(want[i]) {
				t.Fatalf("seed %d: %s did not photograph the test scenes behind dd.Test", seed, p.Name)
			}
		}
	}
}

func TestFig1Structure(t *testing.T) {
	res, err := Fig1(tinyOpts(0.12))
	if err != nil {
		t.Fatal(err)
	}
	if res.HomogeneousAcc < 0 || res.HomogeneousAcc > 1 || res.HeterogeneousAcc < 0 || res.HeterogeneousAcc > 1 {
		t.Fatalf("accuracies out of range: %+v", res)
	}
	if !strings.Contains(res.String(), "homogeneous") {
		t.Fatal("rendering broken")
	}
	pinTable(t, res, "ea14c8b1665b893da512cbd971eb1561d94bf2ac74a70b6fbace25edad4a034e")
}

func TestTable2Structure(t *testing.T) {
	res, err := Table2(tinyOpts(0.12))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DeviceNames) != 9 || len(res.Acc) != 9 {
		t.Fatalf("matrix shape wrong")
	}
	for i := 0; i < 9; i++ {
		if res.Degradation[i][i] != 0 {
			t.Fatal("diagonal degradation must be 0")
		}
	}
	if !strings.Contains(res.String(), "MeanOthers") {
		t.Fatal("rendering broken")
	}
	pinTable(t, res, "d7262f1f3f193623bcef2d382c6e598b25ac307502fcae0044e75d4785b07cd9")
}

func TestFig3Structure(t *testing.T) {
	res, err := Fig3(tinyOpts(0.12))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stages) != 6 {
		t.Fatalf("stages %d", len(res.Stages))
	}
	if res.BaselineAcc <= 0 {
		t.Fatalf("baseline accuracy %v", res.BaselineAcc)
	}
	pinTable(t, res, "9c5429a2d276033187b2668784f744b2fce63e07a339dc1bf4ce515c65169616")
}

func TestFig7Structure(t *testing.T) {
	res, err := Fig7(tinyOpts(0.2))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Transforms) != 4 {
		t.Fatalf("transforms %d", len(res.Transforms))
	}
	for m := 0; m < 3; m++ {
		if res.CleanAcc[m] < 0 || res.CleanAcc[m] > 1 {
			t.Fatalf("clean acc %v", res.CleanAcc[m])
		}
	}
}

// TestModelGrainIdenticalAcrossWorkers: the centralized harnesses train
// their independent models side by side on opts.Workers, each with its own
// RNG and arena, so every rendered byte must match the one-worker run.
func TestModelGrainIdenticalAcrossWorkers(t *testing.T) {
	for _, exp := range []string{"table2", "fig7"} {
		var want string
		for _, workers := range []int{1, 3} {
			opts := tinyOpts(0.12)
			opts.Workers = workers
			res, err := Run(exp, opts)
			if err != nil {
				t.Fatal(err)
			}
			if workers == 1 {
				want = res.String()
			} else if got := res.String(); got != want {
				t.Fatalf("%s at workers=%d:\n%s\nwant (workers=1):\n%s", exp, workers, got, want)
			}
		}
	}
}

func TestFig4Structure(t *testing.T) {
	res, err := Fig4(tinyOpts(0.1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DeviceNames) != 9 || len(res.Degradation) != 9 {
		t.Fatal("per-device series wrong length")
	}
	doms := 0
	for _, d := range res.Dominant {
		if d {
			doms++
		}
	}
	if doms != 2 {
		t.Fatalf("dominant flags %d, want 2", doms)
	}
}

func TestFig8Structure(t *testing.T) {
	res, err := Fig8(tinyOpts(0.1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FedAvg.PerDevice) != 10 || len(res.Hetero.PerDevice) != 10 {
		t.Fatal("device series wrong")
	}
	if !strings.Contains(res.String(), "jitter-07") {
		t.Fatal("rendering broken")
	}
}

func TestECGStructure(t *testing.T) {
	res, err := ECG(tinyOpts(0.08))
	if err != nil {
		t.Fatal(err)
	}
	if res.FedAvgDeviation <= 0 || res.HeteroDeviation <= 0 {
		t.Fatalf("deviations: %+v", res)
	}
	if !strings.Contains(res.String(), "HeteroSwitch+RGF") {
		t.Fatal("rendering broken")
	}
	pinTable(t, res, "b416e42a2bce6f9ee53cfc249033285ca6d76379dfd1ffb15edeef7c23d7379b")
}

func TestTable6Structure(t *testing.T) {
	res, err := Table6(tinyOpts(0.1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.MeanAP < 0 || row.MeanAP > 100 {
			t.Fatalf("AP out of range: %+v", row)
		}
	}
	pinTable(t, res, "d8b49a7f998bd9d191da76ba19f1a8f378f970beb3ed7d457491f8eaa693a3ed")
}

// asyncSweepDigest is the sha256 of AsyncSweep's table on tinyOpts(0.1).
const asyncSweepDigest = "8434c947d176b02f35ec107870bef95b1747dfc9693da977cb39773807e29b59"

func TestAsyncSweepStructure(t *testing.T) {
	res, err := AsyncSweep(tinyOpts(0.1))
	if err != nil {
		t.Fatal(err)
	}
	pinTable(t, res, asyncSweepDigest)
	if len(res.Arms) != 5 {
		t.Fatalf("arms %d, want 5", len(res.Arms))
	}
	// Arms 0 (sync) and 1 (async, zero latency, no discount, depth 1) run
	// the same aggregation math and must report identical accuracy — the
	// equivalence contract surfacing in the characterization itself.
	if res.Arms[0].FinalAcc != res.Arms[1].FinalAcc {
		t.Fatalf("zero-latency async arm diverged from sync: %v vs %v",
			res.Arms[1].FinalAcc, res.Arms[0].FinalAcc)
	}
	if res.Arms[1].VirtualTime != 0 || res.Arms[1].MeanStaleness != 0 {
		t.Fatalf("zero-latency arm accrued time or staleness: %+v", res.Arms[1])
	}
	for _, a := range res.Arms {
		if a.FinalAcc < 0 || a.FinalAcc > 1 {
			t.Fatalf("accuracy out of range: %+v", a)
		}
	}
	// The straggler arms must accrue virtual time; the sync arm pays at
	// least as much per aggregation as an async window of the same size.
	syncT, asyncT := res.Arms[0].VirtualTime, res.Arms[4].VirtualTime
	if syncT <= 0 || asyncT <= 0 {
		t.Fatalf("straggler arms accrued no virtual time: sync %v async %v", syncT, asyncT)
	}
	if !strings.Contains(res.String(), "rounds-to-target") {
		t.Fatal("rendering broken")
	}
}

// The sweep's arms are fixed engine settings: no -async flag reaches them,
// so a latency model with no matching arm, no discount and a deeper
// pipeline print the table of the plain run.
func TestAsyncSweepArmsAreFixed(t *testing.T) {
	opts := tinyOpts(0.1)
	opts.Async = AsyncOptions{Enabled: true, LatencyModel: "const:1", StalenessAlpha: 0, Depth: 5}
	res, err := AsyncSweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	pinTable(t, res, asyncSweepDigest)
}

// Options.Async must reroute every strategy through the async server inside
// NewFL, and its zero value none; every trainer it builds still runs.
func TestNewFLHonorsAsyncOptions(t *testing.T) {
	opts := tinyOpts(0.1)
	opts.Async = AsyncOptions{Enabled: true, StalenessAlpha: 0.5, LatencyModel: "uniform:0.5,2"}
	dd, err := BuildDeviceData(opts, 1, 1, dataset.ModeProcessed)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fl.Config{Rounds: 2, ClientsPerRound: 4, BatchSize: 4, LocalEpochs: 1,
		LR: 0.1, Seed: opts.Seed, Workers: 2}
	counts := MarketShareCounts(dd, 9)
	builder := SimpleCNNBuilder(opts.Seed, dd.Classes)
	var srv Trainer
	for _, strat := range []fl.Strategy{fl.FedAvg{}, &fl.FedProx{Mu: 0.1}, &fl.QFedAvg{Q: 1e-6},
		&fl.Scaffold{TotalClients: 9}, core.New()} {
		srv, _, err = NewFL(opts, strat, dd.Train, counts, cfg, builder, nn.SoftmaxCrossEntropy{})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := srv.(*fl.AsyncServer); !ok {
			t.Fatalf("%s: async options ignored: got %T", strat.Name(), srv)
		}
		srv.Run(nil)
	}
	opts.Async = AsyncOptions{}
	srv, _, err = NewFL(opts, &fl.QFedAvg{Q: 1e-6}, dd.Train, counts, cfg, builder, nn.SoftmaxCrossEntropy{})
	if err != nil {
		t.Fatal(err)
	}
	srv.Run(nil)
	if _, ok := srv.(*fl.Server); !ok {
		t.Fatalf("zero async options must stay synchronous: got %T", srv)
	}
	if srv.GlobalNet() == nil {
		t.Fatal("trained server returned no network")
	}
	opts.Async = AsyncOptions{Enabled: true, LatencyModel: "bogus"}
	if _, _, err := NewFL(opts, fl.FedAvg{}, dd.Train, counts, cfg, builder, nn.SoftmaxCrossEntropy{}); err == nil {
		t.Fatal("bad latency spec must error")
	}
}

func TestJitterDeviceBounded(t *testing.T) {
	d := ColorJitterDevice{Contrast: 1.4, Brightness: 0.15, Saturation: 1.5, Hue: 0.25}
	ds := sceneDataset(tinyOpts(0.1), 1, "jitter-test")
	x := ds.Samples[0].X
	d.Apply(x)
	for _, v := range x.Data() {
		if v < 0 || v > 1 {
			t.Fatalf("jitter out of range: %v", v)
		}
	}
}

func TestScoreFromAccuracies(t *testing.T) {
	s := scoreFromAccuracies("m", []float64{0.7, 0.5})
	if s.WorstAcc != 0.5 || s.AvgAcc != 0.6 {
		t.Fatalf("score %+v", s)
	}
	// variance of {50, 70} (population) = 100.
	if s.Variance != 100 {
		t.Fatalf("variance %v", s.Variance)
	}
}

// Evaluate runs every round once, in order, through each, and its score is
// exactly the triple of the final network's per-set accuracies — on both
// engines.
func TestEvaluate(t *testing.T) {
	perDevice, counts, cfg, builder := tinyFederation()
	cfg.Rounds = 3
	dd := &DeviceData{Train: perDevice, Test: []*dataset.Dataset{perDevice[1], perDevice[0]}, Classes: 2}
	for _, async := range []bool{false, true} {
		opts := tinyOpts(1)
		opts.Async.Enabled = async
		tr, _, err := NewFL(opts, fl.FedAvg{}, dd.Train, counts, cfg, builder, nn.SoftmaxCrossEntropy{})
		if err != nil {
			t.Fatal(err)
		}
		var rounds []int
		score, net := Evaluate(tr, "m", dd.Test, func(s fl.RoundStats) { rounds = append(rounds, s.Round) })
		if len(rounds) != cfg.Rounds {
			t.Fatalf("async=%v: each saw rounds %v, want 0..%d once each", async, rounds, cfg.Rounds-1)
		}
		for i, r := range rounds {
			if r != i {
				t.Fatalf("async=%v: each saw rounds %v, want 0..%d once each", async, rounds, cfg.Rounds-1)
			}
		}
		global := tr.GlobalNet()
		accs := make([]float64, len(dd.Test))
		for i, ds := range dd.Test {
			accs[i] = metrics.Accuracy(global, ds, 16)
			if score.PerDevice[i] != accs[i] || metrics.Accuracy(net, ds, 16) != accs[i] {
				t.Fatalf("async=%v: PerDevice[%d] = %v, want %v", async, i, score.PerDevice[i], accs[i])
			}
		}
		want := scoreFromAccuracies("m", accs)
		if score.Method != want.Method || score.WorstAcc != want.WorstAcc ||
			score.Variance != want.Variance || score.AvgAcc != want.AvgAcc {
			t.Fatalf("async=%v: score %+v, want %+v", async, score, want)
		}
	}
}
