// ECGFL demonstrates the non-vision use of HeteroSwitch (§6.6): federated
// heart-rate regression across four ECG sensor types, with the
// Random-Gaussian-Filter transformation standing in for the vision ISP
// transformation.
//
//	go run ./examples/ecgfl
package main

import (
	"fmt"
	"log"

	"heteroswitch/internal/core"
	"heteroswitch/internal/dataset"
	"heteroswitch/internal/ecg"
	"heteroswitch/internal/experiments"
	"heteroswitch/internal/fl"
	"heteroswitch/internal/frand"
	"heteroswitch/internal/models"
	"heteroswitch/internal/nn"
	"heteroswitch/internal/tensor"
)

func main() {
	const seed = 17
	rng := frand.New(seed)

	fmt.Println("generating ECG windows for 4 sensor types...")
	train := map[int]*dataset.Dataset{}
	for s := ecg.SensorType(0); s < ecg.NumSensors; s++ {
		train[int(s)] = ecg.GenerateDataset(s, 160, rng.SplitNamed(s.String()))
		fmt.Printf("  %-15s %d windows\n", s, train[int(s)].Len())
	}

	builder := models.ECGConvBuilder(seed, ecg.WindowLen)
	cfg := fl.Config{
		Rounds:          120,
		ClientsPerRound: 8,
		BatchSize:       16,
		LocalEpochs:     1,
		LR:              0.05,
		Seed:            seed,
		Workers:         4,
	}
	counts := experiments.EqualCounts(int(ecg.NumSensors), 12)

	hetero := core.New()
	hetero.Transform = core.RandomGaussianFilter(0.5, 2.5)

	for _, strat := range []fl.Strategy{fl.FedAvg{}, hetero} {
		srv, _, err := experiments.NewFL(experiments.DefaultOptions(), strat, train, counts, cfg, builder, nn.MSE{})
		if err != nil {
			log.Fatal(err)
		}
		srv.Run(nil)
		net := srv.GlobalNet()

		// Same waveforms through all four sensors: how much do predictions
		// diverge purely because of the recording hardware?
		windows, truths := ecg.PairedRecordings(30, frand.New(seed^0xe))
		var spread float64
		for i, row := range windows {
			minP, maxP := 1e9, -1e9
			for _, w := range row {
				x := tensor.New(1, w.Size())
				copy(x.Data(), w.Data())
				p := ecg.DenormalizeHR(net.Forward(x, false).At(0, 0))
				if p < minP {
					minP = p
				}
				if p > maxP {
					maxP = p
				}
			}
			spread += (maxP - minP) / truths[i]
		}
		fmt.Printf("\n%s: mean cross-sensor prediction spread %.1f%% of true HR\n",
			strat.Name(), spread/float64(len(windows))*100)
	}
}
