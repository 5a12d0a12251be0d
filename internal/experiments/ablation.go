package experiments

import (
	"fmt"

	"heteroswitch/internal/core"
	"heteroswitch/internal/dataset"
	"heteroswitch/internal/fl"
	"heteroswitch/internal/nn"
)

// AblationResult is a generic labelled score list used by the design-choice
// ablations that go beyond the paper's tables.
type AblationResult struct {
	Title  string
	Scores []MethodScore
}

// String renders the ablation.
func (r *AblationResult) String() string {
	t := &Table{
		Title:  r.Title,
		Header: []string{"variant", "worst-case acc", "variance (pp²)", "avg acc"},
	}
	for _, s := range r.Scores {
		t.AddRow(s.Method, pct(s.WorstAcc), fmt.Sprintf("%.2f", s.Variance), pct(s.AvgAcc))
	}
	return t.String()
}

// ablationRig builds the shared workload and returns an evaluator.
func ablationRig(opts Options) (func(name string, strat fl.Strategy) (MethodScore, error), error) {
	dd, err := BuildDeviceData(opts, opts.scaled(10), opts.scaled(testPerClass), dataset.ModeProcessed)
	if err != nil {
		return nil, err
	}
	cfg := opts.FLConfig(opts.scaled(80), 12, 10, 0.1)
	counts := MarketShareCounts(dd, opts.scaled(60))
	builder := SimpleCNNBuilder(opts.Seed, dd.Classes)
	return func(name string, strat fl.Strategy) (MethodScore, error) {
		tr, _, err := NewFL(opts, strat, dd.Train, counts, cfg, builder, nn.SoftmaxCrossEntropy{})
		if err != nil {
			return MethodScore{}, err
		}
		score, _ := Evaluate(tr, name, dd.Test, nil)
		return score, nil
	}, nil
}

// AblationSwitches isolates the contribution of Switch 1 and Switch 2: no
// mechanism (FedAvg), transform always-on, transform+SWAD always-on, and the
// full switched algorithm.
func AblationSwitches(opts Options) (*AblationResult, error) {
	run, err := ablationRig(opts)
	if err != nil {
		return nil, err
	}
	res := &AblationResult{Title: "Ablation — switching mechanisms"}
	variants := []struct {
		name  string
		strat fl.Strategy
	}{
		{"no-switches (FedAvg)", fl.FedAvg{}},
		{"always-transform", core.NewWithMode(core.ModeTransformOnly)},
		{"always-transform+SWAD", core.NewWithMode(core.ModeTransformSWAD)},
		{"switched (HeteroSwitch)", core.New()},
	}
	for _, v := range variants {
		s, err := run(v.name, v.strat)
		if err != nil {
			return nil, err
		}
		res.Scores = append(res.Scores, s)
	}
	return res, nil
}

// AblationEMAAlpha sweeps eq. 1's smoothing factor (the paper fixes 0.9).
func AblationEMAAlpha(opts Options) (*AblationResult, error) {
	run, err := ablationRig(opts)
	if err != nil {
		return nil, err
	}
	res := &AblationResult{Title: "Ablation — EMA smoothing factor α"}
	for _, alpha := range []float64{0.5, 0.7, 0.9, 0.99} {
		hs := core.New()
		hs.Alpha = alpha
		s, err := run(fmt.Sprintf("alpha=%.2f", alpha), hs)
		if err != nil {
			return nil, err
		}
		res.Scores = append(res.Scores, s)
	}
	return res, nil
}

// AblationDegrees sweeps the transformation degrees of eqs. 2-3 over the
// appendix's search grid corners.
func AblationDegrees(opts Options) (*AblationResult, error) {
	run, err := ablationRig(opts)
	if err != nil {
		return nil, err
	}
	res := &AblationResult{Title: "Ablation — random WB / gamma degrees"}
	grid := []struct{ wb, gamma float64 }{
		{0.001, 0.1},
		{0.001, 0.9}, // the paper's tuned point
		{0.1, 0.9},
		{0.5, 0.5},
		{0.9, 0.9},
	}
	for _, g := range grid {
		hs := core.New()
		hs.Transform = core.RandomWBGamma(g.wb, g.gamma)
		s, err := run(fmt.Sprintf("wb=%.3f gamma=%.1f", g.wb, g.gamma), hs)
		if err != nil {
			return nil, err
		}
		res.Scores = append(res.Scores, s)
	}
	return res, nil
}
