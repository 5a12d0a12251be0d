package experiments

import (
	"fmt"

	"heteroswitch/internal/flair"
	"heteroswitch/internal/metrics"
	"heteroswitch/internal/models"
	"heteroswitch/internal/nn"
)

// Table6Result is the FLAIR-substitute evaluation: multi-label averaged
// precision across a long tail of device types.
type Table6Result struct {
	Rows []struct {
		Method   string
		MeanAP   float64 // macro AP averaged over device types (percent)
		Variance float64 // variance of per-device AP (percentage points²)
	}
}

// String renders Table 6's layout.
func (r *Table6Result) String() string {
	t := &Table{
		Title:  "Table 6 — FLAIR-substitute multi-label evaluation",
		Header: []string{"method", "averaged precision", "variance (pp²)"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Method, fmt.Sprintf("%.2f%%", row.MeanAP), fmt.Sprintf("%.2f", row.Variance))
	}
	return t.String()
}

// Table6 builds the multi-device-type multi-label federation and compares
// FedAvg, HeteroSwitch, q-FedAvg, and FedProx on averaged precision.
func Table6(opts Options) (*Table6Result, error) {
	cfg := flair.Config{NumDeviceTypes: opts.scaled(24), SamplesPerDevice: opts.scaled(12),
		TestPerDevice: opts.scaled(6), OutRes: OutRes, Seed: opts.Seed}
	fed, err := flair.Build(cfg)
	if err != nil {
		return nil, err
	}

	builder, err := models.BuilderFor(models.ArchMobileNet, opts.Seed, 3, fed.Train[0].NumClasses)
	if err != nil {
		return nil, err
	}
	flCfg := opts.FLConfig(opts.scaled(80), min(12, cfg.NumDeviceTypes), 6, 0.1)
	counts := EqualCounts(cfg.NumDeviceTypes, cfg.NumDeviceTypes) // one client per device type

	res := &Table6Result{}
	for _, name := range []string{"fedavg", "heteroswitch", "qfedavg", "fedprox"} {
		strat, err := Method(name, cfg.NumDeviceTypes)
		if err != nil {
			return nil, err
		}
		srv, _, err := NewFL(opts, strat, fed.Train, counts, flCfg, builder, nn.BCEWithLogits{})
		if err != nil {
			return nil, fmt.Errorf("table6 %s: %w", strat.Name(), err)
		}
		srv.Run(nil)
		net := srv.GlobalNet()
		// Per-device-type averaged precision.
		var aps []float64
		for d := 0; d < cfg.NumDeviceTypes; d++ {
			scores, labels := metrics.MultiLabelScores(net, fed.Test[d], 8)
			aps = append(aps, metrics.MeanAveragePrecision(scores, labels)*100)
		}
		res.Rows = append(res.Rows, struct {
			Method   string
			MeanAP   float64
			Variance float64
		}{strat.Name(), metrics.Mean(aps), metrics.Variance(aps)})
	}
	return res, nil
}
