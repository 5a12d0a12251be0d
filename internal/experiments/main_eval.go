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

// fedWorkload sizes a device-federation harness at Scale 1 (each size is
// scaled): perClass train scenes per class on every Table-1 device, then
// rounds of K = k at B = 10, η = 0.1 over clients market-share clients,
// training the network model builds.
type fedWorkload struct {
	perClass, rounds, k, clients int
	model                        func(seed uint64, classes int) models.Builder
}

var (
	// §6's main evaluation; Table 5 retrains it per architecture.
	table4Workload = fedWorkload{perClass: 12, rounds: 120, k: 20, clients: 100, model: MobileNetBuilder}
	// The smaller federation of the ablations and unseen-dg.
	ablationWorkload = fedWorkload{perClass: 10, rounds: 80, k: 12, clients: 60, model: SimpleCNNBuilder}
)

// fedRig is a fedWorkload captured at one Options, with what score trains.
type fedRig struct {
	*DeviceData
	opts    Options
	cfg     fl.Config
	counts  []int
	builder models.Builder
}

// capture builds w's device federation at opts.
func (w fedWorkload) capture(opts Options) (*fedRig, error) {
	dd, err := BuildDeviceData(opts, opts.scaled(w.perClass), opts.scaled(PerClassTest), dataset.ModeProcessed)
	if err != nil {
		return nil, err
	}
	return &fedRig{DeviceData: dd, opts: opts, cfg: opts.FLConfig(opts.scaled(w.rounds), w.k, 10, 0.1),
		counts: MarketShareCounts(dd, opts.scaled(w.clients)), builder: w.model(opts.Seed, dd.Classes)}, nil
}

// score trains strat on r's federation (NewFL) and scores the final global
// model on tests (Evaluate) under name.
func (r *fedRig) score(name string, strat fl.Strategy, tests []*dataset.Dataset) (MethodScore, error) {
	tr, _, err := NewFL(r.opts, strat, r.Train, r.counts, r.cfg, r.builder, nn.SoftmaxCrossEntropy{})
	if err != nil {
		return MethodScore{}, err
	}
	score, _ := Evaluate(tr, name, tests, nil)
	return score, nil
}

// Table4 runs the full main-evaluation sweep with TinyMobileNetV3.
func Table4(opts Options) (*Table4Result, error) {
	r, err := table4Workload.capture(opts)
	if err != nil {
		return nil, err
	}
	res := &Table4Result{}
	for _, m := range methods {
		strat := m.build(opts.scaled(table4Workload.clients))
		score, err := r.score(strat.Name(), strat, r.Test)
		if err != nil {
			return nil, fmt.Errorf("table4 %s: %w", strat.Name(), err)
		}
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

// Table5 retrains Table 4's workload per architecture.
func Table5(opts Options) (*Table5Result, error) {
	r, err := table4Workload.capture(opts)
	if err != nil {
		return nil, err
	}
	archs := []models.Arch{models.ArchMobileNet, models.ArchShuffleNet, models.ArchSqueezeNet}
	res := &Table5Result{}
	for _, arch := range archs {
		if r.builder, err = models.BuilderFor(arch, opts.Seed, 3, r.Classes); err != nil {
			return nil, err
		}
		var scores [2]MethodScore
		for i, strat := range []fl.Strategy{fl.FedAvg{}, core.New()} {
			if scores[i], err = r.score(strat.Name(), strat, r.Test); err != nil {
				return nil, fmt.Errorf("table5 %s/%s: %w", arch, strat.Name(), err)
			}
		}
		res.Rows = append(res.Rows, struct {
			Arch           string
			FedAvg, Hetero MethodScore
		}{string(arch), scores[0], scores[1]})
	}
	return res, nil
}
