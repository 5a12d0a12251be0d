package experiments

import (
	"fmt"

	"heteroswitch/internal/core"
	"heteroswitch/internal/dataset"
	"heteroswitch/internal/device"
	"heteroswitch/internal/fl"
	"heteroswitch/internal/frand"
	"heteroswitch/internal/metrics"
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

// UnseenDG trains the ablation workload on the nine Table-1 devices under
// FedAvg and HeteroSwitch and scores each on the seen devices' test sets and
// on the test sets of three freshly drawn random device profiles
// (unseenTests). Every unseen device photographs exactly the test scenes
// behind the seen ones, so the seen-vs-unseen gap is the device change
// alone.
func UnseenDG(opts Options) (*UnseenResult, error) {
	r, err := ablationWorkload.capture(opts)
	if err != nil {
		return nil, err
	}
	profs, unseen, err := unseenTests(opts)
	if err != nil {
		return nil, err
	}
	res := &UnseenResult{}
	for _, p := range profs {
		res.UnseenNames = append(res.UnseenNames, p.Name)
	}
	// The seen devices' test sets, then the unseen ones: one readout scores
	// both, split at len(r.Test).
	tests := append(r.Test[:len(r.Test):len(r.Test)], unseen...)
	for _, strat := range []fl.Strategy{fl.FedAvg{}, core.New()} {
		score, err := r.score(strat.Name(), strat, tests)
		if err != nil {
			return nil, err
		}
		seen, unseen := score.PerDevice[:len(r.Test)], score.PerDevice[len(r.Test):]
		res.Rows = append(res.Rows, struct {
			Method    string
			SeenAvg   float64
			UnseenAvg float64
			UnseenMin float64
		}{strat.Name(), metrics.Mean(seen), metrics.Mean(unseen), metrics.Worst(unseen)})
	}
	return res, nil
}

// unseenTests draws three random device profiles, each followed by its noise
// stream, from one seed-derived stream, and returns them with what each
// (tagged 100+i) photographs of the test scenes behind the Table-1 devices'
// test sets at opts, which it takes from sceneSets.
func unseenTests(opts Options) ([]*device.Profile, []*dataset.Dataset, error) {
	const numUnseen = 3
	_, testScenes, classes := sceneSets(opts.Seed, 0, opts.scaled(PerClassTest))
	urng := frand.New(opts.Seed ^ 0x0ddba11)
	profs := make([]*device.Profile, numUnseen)
	tags := make([]int, numUnseen)
	rngs := make([]*frand.RNG, numUnseen)
	for i := range profs {
		profs[i] = device.Random(urng, fmt.Sprintf("unseen-%d", i))
		tags[i], rngs[i] = 100+i, urng.Split()
	}
	sets, err := dataset.CaptureDevices(testScenes, profs, dataset.ModeProcessed, OutRes, classes, tags, rngs, opts.Workers)
	return profs, sets, err
}
