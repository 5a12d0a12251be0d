package experiments

import (
	"fmt"

	"heteroswitch/internal/dataset"
	"heteroswitch/internal/fl"
	"heteroswitch/internal/metrics"
	"heteroswitch/internal/nn"
	"heteroswitch/internal/simclock"
)

// AsyncArm is one row of the sync-vs-async characterization: an aggregation
// regime under one latency distribution.
type AsyncArm struct {
	Name    string
	Latency string
	// FinalAcc is accuracy on the pooled test set after all rounds.
	FinalAcc float64
	// RoundsToTarget is the first evaluation round whose accuracy reached
	// the sweep's target (90% of the sync arm's final accuracy); -1 when the
	// arm never got there.
	RoundsToTarget int
	// VirtualTime is the simulated clock at the end of the run — the metric
	// the round barrier loses on under stragglers: a synchronous round costs
	// the max of its clients' latencies, an async window only its
	// Buffer-th completion.
	VirtualTime float64
	// MeanStaleness averages each round's mean staleness over the run
	// (identically 0 for the sync arm).
	MeanStaleness float64
}

// AsyncSweepResult compares rounds-to-accuracy and virtual wall-clock of
// synchronous vs asynchronous aggregation under straggler distributions.
type AsyncSweepResult struct {
	TargetAcc float64
	Rounds    int
	Arms      []AsyncArm
}

// String renders the sweep.
func (r *AsyncSweepResult) String() string {
	t := &Table{
		Title: fmt.Sprintf("Async characterization — rounds-to-%.1f%% accuracy over %d rounds",
			r.TargetAcc*100, r.Rounds),
		Header: []string{"arm", "latency", "final-acc", "rounds-to-target", "virtual-time", "mean-staleness"},
	}
	for _, a := range r.Arms {
		rt := "never"
		if a.RoundsToTarget >= 0 {
			rt = fmt.Sprintf("%d", a.RoundsToTarget)
		}
		t.AddRow(a.Name, a.Latency, pct(a.FinalAcc), rt,
			fmt.Sprintf("%.1f", a.VirtualTime), fmt.Sprintf("%.2f", a.MeanStaleness))
	}
	return t.String()
}

// asyncTrajectory is one arm's measured run: accuracy at each evaluation
// checkpoint plus the async telemetry.
type asyncTrajectory struct {
	rounds        []int // evaluation checkpoints (1-based round counts)
	accs          []float64
	virtualTime   float64
	meanStaleness float64
}

// roundsToTarget returns the first checkpoint reaching the target, or -1.
func (tr *asyncTrajectory) roundsToTarget(target float64) int {
	for i, acc := range tr.accs {
		if acc >= target {
			return tr.rounds[i]
		}
	}
	return -1
}

// AsyncSweep is the async-aggregation characterization: the same federated
// workload trained synchronously and asynchronously under heterogeneous
// client latencies, comparing rounds-to-accuracy, end-of-run accuracy, and
// simulated wall-clock. The straggler arms are the paper's heterogeneity
// regime pushed into the time domain: a fixed slice of devices is
// persistently slow, so the synchronous barrier pays the tail latency every
// round while the async server folds fresh results and discounts stale ones.
//
// The five arms are fixed engine settings, so the -async flags do not move
// the table. Of the shared flags it reads -seed, -scale, -workers, -intraop,
// -faults and -max-delta-norm.
func AsyncSweep(opts Options) (*AsyncSweepResult, error) {
	dd, err := BuildDeviceData(opts, opts.scaled(6), opts.scaled(3), dataset.ModeProcessed)
	if err != nil {
		return nil, err
	}
	cfg := opts.FLConfig(opts.scaled(30), 8, 10, 0.1)
	builder := SimpleCNNBuilder(opts.Seed, dd.Classes)
	counts := MarketShareCounts(dd, 24)
	test := dd.AllTest()
	evalEvery := max(1, cfg.Rounds/8)

	const uniform, straggler = "uniform:0.5,2", "straggler:0.5,2,0.15,8"
	tail, err := simclock.ParseModel(straggler, opts.Seed)
	if err != nil {
		return nil, err
	}

	// run trains one arm through NewFL on a copy of opts that carries the
	// arm's engine settings, and records its trajectory.
	run := func(async AsyncOptions) (*asyncTrajectory, error) {
		o := opts
		o.Async = async
		srv, _, err := NewFL(o, fl.FedAvg{}, dd.Train, counts, cfg, builder, nn.SoftmaxCrossEntropy{})
		if err != nil {
			return nil, err
		}
		tr := &asyncTrajectory{}
		step := 0
		srv.Run(func(s fl.RoundStats) {
			if !async.Enabled {
				// The barrier pays the slowest sampled client every round; the
				// sync arm's virtual clock accrues that max so the time axis is
				// comparable with the async arms (same model, same step keying).
				var worst float64
				for i, id := range s.Sampled {
					if d := tail.Sample(id, step+i); d > worst {
						worst = d
					}
				}
				step += len(s.Sampled)
				s.VirtualTime = tr.virtualTime + worst
			}
			tr.meanStaleness += s.MeanStaleness / float64(cfg.Rounds)
			tr.virtualTime = s.VirtualTime
			if (s.Round+1)%evalEvery == 0 || s.Round == cfg.Rounds-1 {
				tr.rounds = append(tr.rounds, s.Round+1)
				tr.accs = append(tr.accs, metrics.Accuracy(srv.GlobalNet(), test, 16))
			}
		})
		return tr, nil
	}

	arms := []struct {
		name, latency string
		async         AsyncOptions
	}{
		{"sync (barrier pays tail)", "straggler", AsyncOptions{}},
		{"async zero-latency (sanity ≡ sync)", "zero", AsyncOptions{Enabled: true, LatencyModel: "zero", Depth: 1}},
		{"async uniform, poly discount", "uniform", AsyncOptions{Enabled: true, StalenessAlpha: 0.5, LatencyModel: uniform, Depth: 2}},
		{"async straggler, no discount", "straggler", AsyncOptions{Enabled: true, LatencyModel: straggler, Depth: 2}},
		{"async straggler, poly(0.5)", "straggler", AsyncOptions{Enabled: true, StalenessAlpha: 0.5, LatencyModel: straggler, Depth: 2}},
	}

	res := &AsyncSweepResult{Rounds: cfg.Rounds}
	trajectories := make([]*asyncTrajectory, len(arms))
	for i, arm := range arms {
		tr, err := run(arm.async)
		if err != nil {
			return nil, fmt.Errorf("async sweep arm %q: %w", arm.name, err)
		}
		trajectories[i] = tr
	}
	res.TargetAcc = 0.9 * trajectories[0].accs[len(trajectories[0].accs)-1]
	for i, arm := range arms {
		tr := trajectories[i]
		res.Arms = append(res.Arms, AsyncArm{
			Name:           arm.name,
			Latency:        arm.latency,
			FinalAcc:       tr.accs[len(tr.accs)-1],
			RoundsToTarget: tr.roundsToTarget(res.TargetAcc),
			VirtualTime:    tr.virtualTime,
			MeanStaleness:  tr.meanStaleness,
		})
	}
	return res, nil
}
