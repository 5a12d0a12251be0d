package experiments

import (
	"fmt"

	"heteroswitch/internal/core"
	"heteroswitch/internal/dataset"
	"heteroswitch/internal/device"
	"heteroswitch/internal/fl"
	"heteroswitch/internal/frand"
	"heteroswitch/internal/metrics"
	"heteroswitch/internal/scene"
)

// UnseenResult extends the paper's domain-generalization evaluation with
// TRULY unseen devices: random camera+ISP profiles that never contributed a
// single training sample (the paper's footnote: >500 new phone models ship
// per year). It compares FedAvg and HeteroSwitch on seen-device accuracy vs
// unseen-device accuracy.
type UnseenResult struct {
	UnseenNames []string
	Rows        []struct {
		Method    string
		SeenAvg   float64
		UnseenAvg float64
		UnseenMin float64
	}
}

// String renders the comparison.
func (r *UnseenResult) String() string {
	t := &Table{
		Title:  fmt.Sprintf("Unseen-device DG — %d random devices never in training", len(r.UnseenNames)),
		Header: []string{"method", "seen avg", "unseen avg", "unseen worst"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Method, pct(row.SeenAvg), pct(row.UnseenAvg), pct(row.UnseenMin))
	}
	return t.String()
}

// UnseenDG trains on the nine Table-1 devices and evaluates on freshly drawn
// random device profiles.
func UnseenDG(opts Options) (*UnseenResult, error) {
	dd, err := BuildDeviceData(opts, opts.scaled(10), opts.scaled(4), dataset.ModeProcessed)
	if err != nil {
		return nil, err
	}
	// Unseen devices capture the SAME test scenes.
	gen := scene.NewImageNet12(64)
	rng := frand.New(opts.Seed)
	testScenes := gen.RenderSet(opts.scaled(4), rng.SplitNamed("test-scenes"))
	const numUnseen = 3
	unseenTests := make([]*dataset.Dataset, numUnseen)
	res := &UnseenResult{}
	urng := frand.New(opts.Seed ^ 0x0ddba11)
	for i := 0; i < numUnseen; i++ {
		prof := device.Random(urng, fmt.Sprintf("unseen-%d", i))
		res.UnseenNames = append(res.UnseenNames, prof.Name)
		ds, err := dataset.Capture(testScenes, prof, 100+i, dataset.ModeProcessed, OutRes, dd.Classes, urng.Split())
		if err != nil {
			return nil, err
		}
		unseenTests[i] = ds
	}

	cfg := opts.FLConfig(opts.scaled(80), 12, 10, 0.1)
	counts := MarketShareCounts(dd, opts.scaled(60))
	builder := SimpleCNNBuilder(opts.Seed, dd.Classes)

	for _, strat := range []fl.Strategy{fl.FedAvg{}, core.New()} {
		srv, err := RunFL(opts, strat, dd, counts, cfg, builder)
		if err != nil {
			return nil, err
		}
		net := srv.GlobalNet()
		seen := metrics.Values(PerDeviceAccuracies(net, dd, 16))
		var unseen []float64
		for _, ds := range unseenTests {
			unseen = append(unseen, metrics.Accuracy(net, ds, 16))
		}
		res.Rows = append(res.Rows, struct {
			Method    string
			SeenAvg   float64
			UnseenAvg float64
			UnseenMin float64
		}{strat.Name(), metrics.Mean(seen), metrics.Mean(unseen), metrics.Worst(unseen)})
	}
	return res, nil
}
