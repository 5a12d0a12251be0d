package experiments

import (
	"fmt"

	"heteroswitch/internal/dataset"
	"heteroswitch/internal/device"
	"heteroswitch/internal/fl"
	"heteroswitch/internal/metrics"
)

// Fig4Result is the fairness characterization (Fig. 4): per-device accuracy
// of a market-share FedAvg model, reported as degradation against the best
// dominant-device accuracy.
type Fig4Result struct {
	DeviceNames []string
	Acc         []float64
	DominantAcc float64 // max accuracy among the dominant devices (S9, S6)
	Degradation []float64
	Dominant    []bool
}

// String renders the per-device degradation bars.
func (r *Fig4Result) String() string {
	t := &Table{
		Title:  fmt.Sprintf("Figure 4 — bias toward dominant devices (dominant acc %s)", pct(r.DominantAcc)),
		Header: []string{"device", "accuracy", "degradation vs dominant", "dominant?"},
	}
	for i, name := range r.DeviceNames {
		dom := ""
		if r.Dominant[i] {
			dom = "yes"
		}
		t.AddRow(name, pct(r.Acc[i]), fmt.Sprintf("%.1f%%", r.Degradation[i]*100), dom)
	}
	return t.String()
}

// Fig4 trains FedAvg with market-share participation and measures how much
// worse each device fares than the dominant group.
func Fig4(opts Options) (*Fig4Result, error) {
	dd, err := BuildDeviceData(opts, opts.scaled(10), opts.scaled(4), dataset.ModeProcessed)
	if err != nil {
		return nil, err
	}
	cfg := opts.FLConfig(opts.scaled(80), 10, 10, 0.1)
	srv, err := RunFL(opts, fl.FedAvg{}, dd, MarketShareCounts(dd, opts.scaled(50)), cfg, SimpleCNNBuilder(opts.Seed, dd.Classes))
	if err != nil {
		return nil, err
	}
	net := srv.GlobalNet()
	acc := PerDeviceAccuracies(net, dd, 16)

	dominant := map[string]bool{}
	for _, n := range device.DominantNames() {
		dominant[n] = true
	}
	res := &Fig4Result{}
	for i, p := range dd.Profiles {
		res.DeviceNames = append(res.DeviceNames, p.Name)
		res.Acc = append(res.Acc, acc[i])
		res.Dominant = append(res.Dominant, dominant[p.Name])
		if dominant[p.Name] && acc[i] > res.DominantAcc {
			res.DominantAcc = acc[i]
		}
	}
	for _, a := range res.Acc {
		res.Degradation = append(res.Degradation, metrics.Degradation(res.DominantAcc, a))
	}
	return res, nil
}

// Fig5Result is the domain-generalization characterization (Fig. 5):
// leave-one-device-out FL, measuring accuracy change on the excluded device
// versus the all-devices-equal reference.
type Fig5Result struct {
	DeviceNames []string
	RefAcc      []float64 // accuracy on device j under all-device training
	LodoAcc     []float64 // accuracy on device j when j was excluded
	Degradation []float64 // (ref - lodo)/ref; negative means exclusion HELPED
}

// String renders the leave-one-out series.
func (r *Fig5Result) String() string {
	t := &Table{
		Title:  "Figure 5 — leave-one-device-out domain generalization",
		Header: []string{"excluded device", "ref accuracy", "LODO accuracy", "degradation"},
	}
	for i, name := range r.DeviceNames {
		t.AddRow(name, pct(r.RefAcc[i]), pct(r.LodoAcc[i]), fmt.Sprintf("%.1f%%", r.Degradation[i]*100))
	}
	return t.String()
}

// Fig5 runs the reference equal-participation FL plus one run per excluded
// device (10 runs total — the dominant cost of the characterization suite).
func Fig5(opts Options) (*Fig5Result, error) {
	dd, err := BuildDeviceData(opts, opts.scaled(8), opts.scaled(4), dataset.ModeProcessed)
	if err != nil {
		return nil, err
	}
	n := len(dd.Profiles)
	cfg := opts.FLConfig(opts.scaled(60), 9, 10, 0.1)
	builder := SimpleCNNBuilder(opts.Seed, dd.Classes)

	perDeviceClients := 2
	ref, err := RunFL(opts, fl.FedAvg{}, dd, EqualCounts(n, n*perDeviceClients), cfg, builder)
	if err != nil {
		return nil, err
	}
	refNet := ref.GlobalNet()
	res := &Fig5Result{}
	refAcc := PerDeviceAccuracies(refNet, dd, 16)

	for j := 0; j < n; j++ {
		counts := EqualCounts(n, n*perDeviceClients)
		counts[j] = 0
		srv, err := RunFL(opts, fl.FedAvg{}, dd, counts, cfg, builder)
		if err != nil {
			return nil, err
		}
		acc := metrics.Accuracy(srv.GlobalNet(), dd.Test[j], 16)
		res.DeviceNames = append(res.DeviceNames, dd.Profiles[j].Name)
		res.RefAcc = append(res.RefAcc, refAcc[j])
		res.LodoAcc = append(res.LodoAcc, acc)
		res.Degradation = append(res.Degradation, metrics.Degradation(refAcc[j], acc))
	}
	return res, nil
}
