package experiments

import (
	"fmt"
	"math"

	"heteroswitch/internal/core"
	"heteroswitch/internal/dataset"
	"heteroswitch/internal/ecg"
	"heteroswitch/internal/fl"
	"heteroswitch/internal/frand"
	"heteroswitch/internal/models"
	"heteroswitch/internal/nn"
	"heteroswitch/internal/tensor"
)

// ECGResult reproduces §6.6: heart-rate prediction divergence across sensor
// types for FedAvg vs HeteroSwitch-with-Random-Gaussian-Filter.
type ECGResult struct {
	// Deviation is mean |pred - truth| / truth over all (signal, sensor)
	// pairs — the paper's headline metric (31.8% → 18.3%).
	FedAvgDeviation float64
	HeteroDeviation float64
	// Spread is the mean cross-sensor prediction spread (max-min)/truth for
	// the SAME underlying signal, isolating sensor-induced divergence.
	FedAvgSpread float64
	HeteroSpread float64
}

// String renders the comparison.
func (r *ECGResult) String() string {
	t := &Table{
		Title:  "§6.6 — ECG heart-rate estimation across four sensor types",
		Header: []string{"method", "deviation vs truth", "cross-sensor spread"},
	}
	t.AddRow("FedAvg", fmt.Sprintf("%.1f%%", r.FedAvgDeviation*100), fmt.Sprintf("%.1f%%", r.FedAvgSpread*100))
	t.AddRow("HeteroSwitch+RGF", fmt.Sprintf("%.1f%%", r.HeteroDeviation*100), fmt.Sprintf("%.1f%%", r.HeteroSpread*100))
	return t.String()
}

// ECG runs the non-vision experiment.
func ECG(opts Options) (*ECGResult, error) {
	rng := frand.New(opts.Seed ^ 0xec6)
	perSensor := opts.scaled(200)
	train := map[int]*dataset.Dataset{}
	for s := ecg.SensorType(0); s < ecg.NumSensors; s++ {
		train[int(s)] = ecg.GenerateDataset(s, perSensor, rng.SplitNamed(s.String()))
	}

	builder := models.ECGConvBuilder(opts.Seed, ecg.WindowLen)
	cfg := opts.FLConfig(opts.scaled(150), 8, 16, 0.05)
	counts := EqualCounts(int(ecg.NumSensors), 12)

	hetero := core.New()
	hetero.Transform = core.RandomGaussianFilter(0.5, 2.5)

	evalRig := func(srv Trainer) (deviation, spread float64) {
		inf := srv.GlobalNet().Freeze()
		windows, truths := ecg.PairedRecordings(opts.scaled(60), frand.New(opts.Seed^0xeca))
		var devSum, sprSum float64
		n := 0
		for i, row := range windows {
			var preds []float64
			for _, w := range row {
				x := tensor.New(1, w.Size())
				copy(x.Data(), w.Data())
				out := inf.Infer(x)
				preds = append(preds, ecg.DenormalizeHR(out.At(0, 0)))
			}
			truth := truths[i]
			minP, maxP := preds[0], preds[0]
			for _, p := range preds {
				devSum += math.Abs(p-truth) / truth
				if p < minP {
					minP = p
				}
				if p > maxP {
					maxP = p
				}
				n++
			}
			sprSum += (maxP - minP) / truth
		}
		return devSum / float64(n), sprSum / float64(len(windows))
	}

	res := &ECGResult{}
	srv, _, err := NewFL(opts, fl.FedAvg{}, train, counts, cfg, builder, nn.MSE{})
	if err != nil {
		return nil, err
	}
	srv.Run(nil)
	res.FedAvgDeviation, res.FedAvgSpread = evalRig(srv)

	srv, _, err = NewFL(opts, hetero, train, counts, cfg, builder, nn.MSE{})
	if err != nil {
		return nil, err
	}
	srv.Run(nil)
	res.HeteroDeviation, res.HeteroSpread = evalRig(srv)
	return res, nil
}
