package experiments

import (
	"fmt"

	"heteroswitch/internal/dataset"
	"heteroswitch/internal/fl"
	"heteroswitch/internal/nn"
)

// Fig9Result is the hyperparameter sensitivity study (App. A.2 / Fig. 9):
// four one-at-a-time sweeps around the paper's chosen configuration.
type Fig9Result struct {
	Sweeps []Fig9Sweep
}

// Fig9Sweep is one panel: vary a single hyperparameter, fixing the rest.
type Fig9Sweep struct {
	Param  string
	Values []string
	Acc    []float64
}

// String renders all panels.
func (r *Fig9Result) String() string {
	t := &Table{
		Title:  "Figure 9 — hyperparameter sensitivity (FedAvg, market-share population)",
		Header: []string{"parameter", "value", "accuracy"},
	}
	for _, sw := range r.Sweeps {
		for i, v := range sw.Values {
			t.AddRow(sw.Param, v, pct(sw.Acc[i]))
		}
	}
	return t.String()
}

// Fig9 runs the sweeps. Round counts are scaled: the paper's T axis
// {100, 500, 1000} maps to {T/10, T/2, T} of the scaled base.
func Fig9(opts Options) (*Fig9Result, error) {
	dd, err := BuildDeviceData(opts, opts.scaled(8), opts.scaled(PerClassTest), dataset.ModeProcessed)
	if err != nil {
		return nil, err
	}
	builder := SimpleCNNBuilder(opts.Seed, dd.Classes)
	counts := MarketShareCounts(dd, opts.scaled(50))
	baseRounds := opts.scaled(80)

	base := opts.FLConfig(baseRounds, 10, 10, 0.1)
	pooled := []*dataset.Dataset{dd.AllTest()}
	eval := func(cfg fl.Config) (float64, error) {
		tr, _, err := NewFL(opts, fl.FedAvg{}, dd.Train, counts, cfg, builder, nn.SoftmaxCrossEntropy{})
		if err != nil {
			return 0, err
		}
		score, _ := Evaluate(tr, fl.FedAvg{}.Name(), pooled, nil)
		return score.PerDevice[0], nil
	}

	// One row per panel: the values swept and how each is set on the base
	// configuration; set returns the label of the value's column.
	panels := []struct {
		param  string
		values []float64
		set    func(cfg *fl.Config, v float64) string
	}{
		{"learning rate", []float64{0.001, 0.01, 0.1}, func(cfg *fl.Config, v float64) string {
			cfg.LR = v
			return fmt.Sprintf("%g", v)
		}},
		{"batch size", []float64{1, 10, 20}, func(cfg *fl.Config, v float64) string {
			cfg.BatchSize = int(v)
			return fmt.Sprintf("%d", cfg.BatchSize)
		}},
		{"local epochs", []float64{1, 3, 5}, func(cfg *fl.Config, v float64) string {
			cfg.LocalEpochs = int(v)
			return fmt.Sprintf("%d", cfg.LocalEpochs)
		}},
		{"rounds", []float64{0.1, 0.5, 1.0}, func(cfg *fl.Config, v float64) string {
			cfg.Rounds = max(1, int(float64(baseRounds)*v))
			return fmt.Sprintf("%d", cfg.Rounds)
		}},
	}
	res := &Fig9Result{}
	for _, p := range panels {
		n := len(p.values)
		sweep := Fig9Sweep{Param: p.param, Values: make([]string, 0, n), Acc: make([]float64, 0, n)}
		for _, v := range p.values {
			cfg := base
			label := p.set(&cfg, v)
			acc, err := eval(cfg)
			if err != nil {
				return nil, err
			}
			sweep.Values = append(sweep.Values, label)
			sweep.Acc = append(sweep.Acc, acc)
		}
		res.Sweeps = append(res.Sweeps, sweep)
	}
	return res, nil
}
