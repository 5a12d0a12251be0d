package experiments

import (
	"strings"
	"testing"

	"heteroswitch/internal/core"
	"heteroswitch/internal/dataset"
	"heteroswitch/internal/fl"
)

func tinyOpts(scale float64) Options {
	opts := DefaultOptions()
	opts.Scale = scale
	opts.Seed = 42
	return opts
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
	if res.NumDevices != 10 || len(res.FedAvgAcc) != 10 || len(res.HeteroAcc) != 10 {
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
}

func TestAsyncSweepStructure(t *testing.T) {
	res, err := AsyncSweep(tinyOpts(0.1))
	if err != nil {
		t.Fatal(err)
	}
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

// Options.Async must reroute every strategy through the async server inside
// the shared RunFL funnel, and its zero value none.
func TestRunFLHonorsAsyncOptions(t *testing.T) {
	opts := tinyOpts(0.1)
	opts.Async = AsyncOptions{Enabled: true, StalenessAlpha: 0.5, LatencyModel: "uniform:0.5,2"}
	dd, err := BuildDeviceData(opts, 1, 1, dataset.ModeProcessed)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fl.Config{Rounds: 2, ClientsPerRound: 4, BatchSize: 4, LocalEpochs: 1,
		LR: 0.1, Seed: opts.Seed, Workers: 2}
	counts := MarketShareCounts(dd, 9)
	var srv Trainer
	for _, strat := range []fl.Strategy{fl.FedAvg{}, &fl.FedProx{Mu: 0.1}, &fl.QFedAvg{Q: 1e-6},
		&fl.Scaffold{TotalClients: 9}, core.New()} {
		srv, err = RunFL(opts, strat, dd, counts, cfg, SimpleCNNBuilder(opts.Seed, dd.Classes))
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := srv.(*fl.AsyncServer); !ok {
			t.Fatalf("%s: async options ignored: got %T", strat.Name(), srv)
		}
	}
	opts.Async = AsyncOptions{}
	srv, err = RunFL(opts, &fl.QFedAvg{Q: 1e-6}, dd, counts, cfg, SimpleCNNBuilder(opts.Seed, dd.Classes))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := srv.(*fl.Server); !ok {
		t.Fatalf("zero async options must stay synchronous: got %T", srv)
	}
	if srv.GlobalNet() == nil {
		t.Fatal("trained server returned no network")
	}
	if _, err := (AsyncOptions{LatencyModel: "bogus"}).Config(4, 1); err == nil {
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
	s := scoreFromAccuracies("m", map[int]float64{0: 0.5, 1: 0.7})
	if s.WorstAcc != 0.5 || s.AvgAcc != 0.6 {
		t.Fatalf("score %+v", s)
	}
	// variance of {50, 70} (population) = 100.
	if s.Variance != 100 {
		t.Fatalf("variance %v", s.Variance)
	}
}
