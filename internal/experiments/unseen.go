package experiments

import (
	"fmt"

	"heteroswitch/internal/core"
	"heteroswitch/internal/dataset"
	"heteroswitch/internal/device"
	"heteroswitch/internal/fl"
	"heteroswitch/internal/frand"
	"heteroswitch/internal/metrics"
	"heteroswitch/internal/nn"
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
	dd, err := BuildDeviceData(opts, opts.scaled(10), opts.scaled(testPerClass), dataset.ModeProcessed)
	if err != nil {
		return nil, err
	}
	// Unseen devices capture the SAME test scenes.
	gen := scene.NewImageNet12(64)
	rng := frand.New(opts.Seed)
	testScenes := gen.RenderSet(opts.scaled(testPerClass), rng.SplitNamed("test-scenes"))
	const numUnseen = 3
	// The seen devices' test sets, then the unseen ones: one readout scores
	// both, split at len(dd.Test).
	tests := append(make([]*dataset.Dataset, 0, len(dd.Test)+numUnseen), dd.Test...)
	res := &UnseenResult{}
	// Each device is drawn, then its noise stream split off, from one stream.
	urng := frand.New(opts.Seed ^ 0x0ddba11)
	profs := make([]*device.Profile, numUnseen)
	tags := make([]int, numUnseen)
	rngs := make([]*frand.RNG, numUnseen)
	for i := range profs {
		profs[i] = device.Random(urng, fmt.Sprintf("unseen-%d", i))
		tags[i], rngs[i] = 100+i, urng.Split()
		res.UnseenNames = append(res.UnseenNames, profs[i].Name)
	}
	unseen, err := dataset.CaptureDevices(testScenes, profs, dataset.ModeProcessed, OutRes, dd.Classes, tags, rngs, opts.Workers)
	if err != nil {
		return nil, err
	}
	tests = append(tests, unseen...)

	cfg := opts.FLConfig(opts.scaled(80), 12, 10, 0.1)
	counts := MarketShareCounts(dd, opts.scaled(60))
	builder := SimpleCNNBuilder(opts.Seed, dd.Classes)

	for _, strat := range []fl.Strategy{fl.FedAvg{}, core.New()} {
		tr, _, err := NewFL(opts, strat, dd.Train, counts, cfg, builder, nn.SoftmaxCrossEntropy{})
		if err != nil {
			return nil, err
		}
		score, _ := Evaluate(tr, strat.Name(), tests, nil)
		seen, unseen := score.PerDevice[:len(dd.Test)], score.PerDevice[len(dd.Test):]
		res.Rows = append(res.Rows, struct {
			Method    string
			SeenAvg   float64
			UnseenAvg float64
			UnseenMin float64
		}{strat.Name(), metrics.Mean(seen), metrics.Mean(unseen), metrics.Worst(unseen)})
	}
	return res, nil
}
