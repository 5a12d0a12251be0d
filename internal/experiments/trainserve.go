package experiments

import (
	"fmt"

	"heteroswitch/internal/dataset"
	"heteroswitch/internal/fl"
	"heteroswitch/internal/nn"
	"heteroswitch/internal/serve"
	"heteroswitch/internal/tensor"
)

// TrainServeSpec wires an asynchronous trainer and a serving load harness
// onto one virtual time axis: every global version the trainer finalizes is
// value-copied into the serving store at its finalize instant, and serving
// requests pin whichever version was current when their batch flushed.
// Builder is the architecture Trainer was built with.
type TrainServeSpec struct {
	Trainer *fl.AsyncServer
	Builder fl.Builder
	Serve   serve.Config
	Load    serve.LoadConfig
}

// TrainServeReport is the joint run's result: training window/publish counts
// and final virtual train time, plus the serving report with its
// served-version staleness block.
type TrainServeReport struct {
	// Windows counts finalized aggregation windows; Published counts the
	// subset that installed a new global version (zero-weight windows
	// publish nothing).
	Windows   int
	Published int
	// TrainTime is the trainer's virtual clock at the last window.
	TrainTime float64
	// Serving is the load harness report; StaleTracked is set and the
	// staleness histogram counts every served request once.
	Serving serve.Report
}

// String renders the training header followed by the serving report.
func (r *TrainServeReport) String() string {
	return fmt.Sprintf("train windows=%d published=%d train_vtime=%.6g\n",
		r.Windows, r.Published, r.TrainTime) + r.Serving.String()
}

// RunTrainServe runs training and serving as one deterministic event
// stream. The serving store starts from a value copy of the trainer's
// initial global (sharing storage would let the trainer's buffer recycling
// mutate a pinned serving version); each OnPublish copies the new global
// into a recycled store buffer and lands it at the trainer's virtual
// finalize instant, advancing the serving simulation up to that point.
func RunTrainServe(spec TrainServeSpec) (*TrainServeReport, error) {
	async := spec.Trainer
	build := func() *nn.Network { return spec.Builder() }
	srv, err := serve.NewServer(build, async.Global.Clone(), spec.Serve)
	if err != nil {
		return nil, err
	}
	if err := srv.BeginTrainLoad(spec.Load); err != nil {
		return nil, err
	}

	rep := &TrainServeReport{}
	var pubErr error
	async.OnPublish = func(_ int, w nn.Weights, vtime float64) {
		if pubErr != nil {
			return
		}
		buf := srv.Store().TakeBuffer()
		buf.CopyFrom(w)
		if err := srv.PublishAt(vtime, buf); err != nil {
			pubErr = err
			return
		}
		rep.Published++
	}
	async.Run(func(st fl.RoundStats) {
		rep.Windows++
		rep.TrainTime = st.VirtualTime
	})
	if pubErr != nil {
		return nil, fmt.Errorf("train-serve publish: %w", pubErr)
	}
	sr, err := srv.FinishTrainLoad()
	if err != nil {
		return nil, fmt.Errorf("train-serve load: %w", err)
	}
	rep.Serving = sr
	return rep, nil
}

// TrainWhileServe is the registry harness: the Table-1 federated workload
// trained asynchronously under a straggler-free uniform latency while the
// just-trained model serves a closed-loop request stream, with
// deadline-ordered (EDF) batch flush on the serving side. Scale drives both
// the training rounds and the offered serving load.
func TrainWhileServe(opts Options) (*TrainServeReport, error) {
	dd, err := BuildDeviceData(opts, opts.scaled(4), opts.scaled(2), dataset.ModeProcessed)
	if err != nil {
		return nil, err
	}
	aopts := opts.Async
	if aopts.LatencyModel == "" {
		// Zero latency would finalize every window at t=0 and serve nothing
		// stale; spread the publishes so requests interleave with them.
		aopts.LatencyModel = "uniform:0.5,2"
	}
	if aopts.Depth == 0 {
		aopts.Depth = 2
	}
	builder := SimpleCNNBuilder(opts.Seed, dd.Classes)
	trainer, _, err := opts.newFL(fl.FedAvg{}, dd.Train, MarketShareCounts(dd, 12),
		opts.FLConfig(opts.scaled(12), 4, 8, 0.1), builder, nn.SoftmaxCrossEntropy{}, &aopts)
	if err != nil {
		return nil, err
	}

	// Serve the pooled test captures as the request payload bank.
	test := dd.AllTest()
	bank := min(32, test.Len())
	inputs := make([]*tensor.Tensor, bank)
	for i := range inputs {
		inputs[i] = test.Samples[i].X
	}

	return RunTrainServe(TrainServeSpec{
		Trainer: trainer.(*fl.AsyncServer),
		Builder: builder,
		Serve: serve.Config{
			MaxBatch:    4,
			BatchBudget: 0.2,
			Workers:     2,
			IntraOp:     opts.IntraOp,
			Flush:       serve.FlushEDF,
			Admission:   serve.AdmissionConfig{Deadline: 30},
		},
		Load: serve.LoadConfig{
			Requests:    opts.scaled(150),
			Concurrency: 8,
			Arrival:     serve.ClosedLoop{Think: 0.3, Seed: opts.Seed ^ 0xa11ce},
			Service:     serve.AffineService{Base: 0.5, PerItem: 0.125},
			Inputs:      inputs,
		},
	})
}
