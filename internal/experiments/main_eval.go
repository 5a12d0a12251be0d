package experiments

import (
	"fmt"

	"heteroswitch/internal/core"
	"heteroswitch/internal/dataset"
	"heteroswitch/internal/fl"
	"heteroswitch/internal/metrics"
	"heteroswitch/internal/models"
	"heteroswitch/internal/nn"
)

// MethodScore holds the paper's three evaluation metrics for one method:
// worst-case accuracy (DG), variance of per-device accuracy in percentage
// points squared, and average accuracy (fairness).
type MethodScore struct {
	Method    string
	WorstAcc  float64
	Variance  float64 // of accuracy expressed in percent, i.e. pp²
	AvgAcc    float64
	PerDevice []float64
}

// scoreFromAccuracies converts per-device accuracies, in device order, into
// the Table 4/5 metric triple.
func scoreFromAccuracies(method string, accs []float64) MethodScore {
	pcts := make([]float64, len(accs))
	for i, a := range accs {
		pcts[i] = a * 100
	}
	return MethodScore{
		Method:    method,
		WorstAcc:  metrics.Worst(accs),
		Variance:  metrics.Variance(pcts),
		AvgAcc:    metrics.Mean(accs),
		PerDevice: accs,
	}
}

// Table4Result is the main evaluation: HeteroSwitch and its ablations
// against FedAvg, q-FedAvg, FedProx, and SCAFFOLD.
type Table4Result struct {
	Scores []MethodScore
}

// String renders Table 4's layout.
func (r *Table4Result) String() string {
	t := &Table{
		Title:  "Table 4 — fairness and domain generalization",
		Header: []string{"method", "worst-case acc (DG)", "variance (pp²)", "avg acc"},
	}
	for _, s := range r.Scores {
		t.AddRow(s.Method, pct(s.WorstAcc), fmt.Sprintf("%.2f", s.Variance), pct(s.AvgAcc))
	}
	return t.String()
}

// methods is the one name → strategy table, in Table 4's row order: the rows
// the paper harness trains and the -method values flsim accepts. Strategies
// are built fresh per call because several carry state.
var methods = []struct {
	name  string
	build func(totalClients int) fl.Strategy
}{
	{"fedavg", func(int) fl.Strategy { return fl.FedAvg{} }},
	{"isp-transform", func(int) fl.Strategy { return core.NewWithMode(core.ModeTransformOnly) }},
	{"isp-swad", func(int) fl.Strategy { return core.NewWithMode(core.ModeTransformSWAD) }},
	{"heteroswitch", func(int) fl.Strategy { return core.New() }},
	{"qfedavg", func(int) fl.Strategy { return &fl.QFedAvg{Q: 1e-6} }}, // paper's tuned q (App. A.2)
	{"fedprox", func(int) fl.Strategy { return &fl.FedProx{Mu: 1e-1} }},
	{"scaffold", func(n int) fl.Strategy { return &fl.Scaffold{TotalClients: n} }},
}

// Method builds the named aggregation method for a population of
// totalClients.
func Method(name string, totalClients int) (fl.Strategy, error) {
	for _, m := range methods {
		if m.name == name {
			return m.build(totalClients), nil
		}
	}
	return nil, fmt.Errorf("unknown method %q", name)
}

// Table4 runs the full main-evaluation sweep with TinyMobileNetV3.
func Table4(opts Options) (*Table4Result, error) {
	dd, err := BuildDeviceData(opts, opts.scaled(12), opts.scaled(testPerClass), dataset.ModeProcessed)
	if err != nil {
		return nil, err
	}
	cfg := opts.FLConfig(opts.scaled(120), 20, 10, 0.1) // §6: K=20, B=10, η=0.1
	n := opts.scaled(100)
	counts := MarketShareCounts(dd, n)
	builder := MobileNetBuilder(opts.Seed, dd.Classes)

	res := &Table4Result{}
	for _, m := range methods {
		strat := m.build(n)
		tr, _, err := NewFL(opts, strat, dd.Train, counts, cfg, builder, nn.SoftmaxCrossEntropy{})
		if err != nil {
			return nil, fmt.Errorf("table4 %s: %w", strat.Name(), err)
		}
		score, _ := Evaluate(tr, strat.Name(), dd.Test, nil)
		res.Scores = append(res.Scores, score)
	}
	return res, nil
}

// Table5Result evaluates FedAvg vs HeteroSwitch across model architectures.
type Table5Result struct {
	Rows []struct {
		Arch           string
		FedAvg, Hetero MethodScore
	}
}

// String renders Table 5's layout.
func (r *Table5Result) String() string {
	t := &Table{
		Title: "Table 5 — architectures × {FedAvg, HeteroSwitch}",
		Header: []string{"model", "FedAvg worst", "FedAvg var", "FedAvg avg",
			"HS worst", "HS var", "HS avg"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Arch,
			pct(row.FedAvg.WorstAcc), fmt.Sprintf("%.2f", row.FedAvg.Variance), pct(row.FedAvg.AvgAcc),
			pct(row.Hetero.WorstAcc), fmt.Sprintf("%.2f", row.Hetero.Variance), pct(row.Hetero.AvgAcc))
	}
	return t.String()
}

// Table5 runs the architecture sweep.
func Table5(opts Options) (*Table5Result, error) {
	dd, err := BuildDeviceData(opts, opts.scaled(12), opts.scaled(testPerClass), dataset.ModeProcessed)
	if err != nil {
		return nil, err
	}
	cfg := opts.FLConfig(opts.scaled(120), 20, 10, 0.1) // Table 4's configuration
	n := opts.scaled(100)
	counts := MarketShareCounts(dd, n)

	archs := []models.Arch{models.ArchMobileNet, models.ArchShuffleNet, models.ArchSqueezeNet}
	res := &Table5Result{}
	for _, arch := range archs {
		builder, err := models.BuilderFor(arch, opts.Seed, 3, dd.Classes)
		if err != nil {
			return nil, err
		}
		var scores [2]MethodScore
		for i, strat := range []fl.Strategy{fl.FedAvg{}, core.New()} {
			tr, _, err := NewFL(opts, strat, dd.Train, counts, cfg, builder, nn.SoftmaxCrossEntropy{})
			if err != nil {
				return nil, fmt.Errorf("table5 %s/%s: %w", arch, strat.Name(), err)
			}
			scores[i], _ = Evaluate(tr, strat.Name(), dd.Test, nil)
		}
		res.Rows = append(res.Rows, struct {
			Arch           string
			FedAvg, Hetero MethodScore
		}{string(arch), scores[0], scores[1]})
	}
	return res, nil
}
