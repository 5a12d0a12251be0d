package experiments

import (
	"fmt"

	"heteroswitch/internal/dataset"
	"heteroswitch/internal/fl"
	"heteroswitch/internal/metrics"
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
	dd, err := BuildDeviceData(opts, opts.scaled(8), opts.scaled(4), dataset.ModeProcessed)
	if err != nil {
		return nil, err
	}
	builder := SimpleCNNBuilder(opts.Seed, dd.Classes)
	counts := MarketShareCounts(dd, opts.scaled(50))
	baseRounds := opts.scaled(80)

	base := opts.FLConfig(baseRounds, 10, 10, 0.1)
	eval := func(cfg fl.Config) (float64, error) {
		srv, err := RunFL(opts, fl.FedAvg{}, dd, counts, cfg, builder)
		if err != nil {
			return 0, err
		}
		return metrics.Accuracy(srv.GlobalNet(), dd.AllTest(), 16), nil
	}

	res := &Fig9Result{}

	lrSweep := Fig9Sweep{Param: "learning rate"}
	for _, lr := range []float64{0.001, 0.01, 0.1} {
		cfg := base
		cfg.LR = lr
		acc, err := eval(cfg)
		if err != nil {
			return nil, err
		}
		lrSweep.Values = append(lrSweep.Values, fmt.Sprintf("%g", lr))
		lrSweep.Acc = append(lrSweep.Acc, acc)
	}
	res.Sweeps = append(res.Sweeps, lrSweep)

	bSweep := Fig9Sweep{Param: "batch size"}
	for _, b := range []int{1, 10, 20} {
		cfg := base
		cfg.BatchSize = b
		acc, err := eval(cfg)
		if err != nil {
			return nil, err
		}
		bSweep.Values = append(bSweep.Values, fmt.Sprintf("%d", b))
		bSweep.Acc = append(bSweep.Acc, acc)
	}
	res.Sweeps = append(res.Sweeps, bSweep)

	eSweep := Fig9Sweep{Param: "local epochs"}
	for _, e := range []int{1, 3, 5} {
		cfg := base
		cfg.LocalEpochs = e
		acc, err := eval(cfg)
		if err != nil {
			return nil, err
		}
		eSweep.Values = append(eSweep.Values, fmt.Sprintf("%d", e))
		eSweep.Acc = append(eSweep.Acc, acc)
	}
	res.Sweeps = append(res.Sweeps, eSweep)

	tSweep := Fig9Sweep{Param: "rounds"}
	for _, frac := range []float64{0.1, 0.5, 1.0} {
		cfg := base
		cfg.Rounds = max(1, int(float64(baseRounds)*frac))
		acc, err := eval(cfg)
		if err != nil {
			return nil, err
		}
		tSweep.Values = append(tSweep.Values, fmt.Sprintf("%d", cfg.Rounds))
		tSweep.Acc = append(tSweep.Acc, acc)
	}
	res.Sweeps = append(res.Sweeps, tSweep)

	return res, nil
}
