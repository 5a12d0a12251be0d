// Quickstart: build a small federated workload over the nine simulated
// devices, train FedAvg and HeteroSwitch for a few rounds, and compare
// per-device accuracy — the library's one-screen tour.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"heteroswitch/internal/core"
	"heteroswitch/internal/dataset"
	"heteroswitch/internal/experiments"
	"heteroswitch/internal/fl"
	"heteroswitch/internal/metrics"
	"heteroswitch/internal/nn"
)

func main() {
	opts := experiments.DefaultOptions()
	opts.Seed = 7

	// 1. Workload: shared scenes photographed by all nine Table-1 devices.
	fmt.Println("capturing scenes with 9 simulated devices...")
	dd, err := experiments.BuildDeviceData(opts, 6, 3, dataset.ModeProcessed)
	if err != nil {
		log.Fatal(err)
	}

	// 2. A federated population whose device mix follows market share.
	cfg := fl.Config{
		Rounds:          40,
		ClientsPerRound: 10,
		BatchSize:       10,
		LocalEpochs:     1,
		LR:              0.1,
		Seed:            opts.Seed,
		Workers:         opts.Workers,
	}
	counts := experiments.MarketShareCounts(dd, 30)
	builder := experiments.SimpleCNNBuilder(opts.Seed, dd.Classes)

	// 3. Train FedAvg (baseline) and HeteroSwitch (the paper's method).
	for _, strat := range []fl.Strategy{fl.FedAvg{}, core.New()} {
		srv, _, err := experiments.NewFL(opts, strat, dd.Train, counts, cfg, builder, nn.SoftmaxCrossEntropy{})
		if err != nil {
			log.Fatal(err)
		}
		score := experiments.Evaluate(srv, strat.Name(), dd.Test, nil)
		var pcts []float64
		fmt.Printf("\n%s:\n", strat.Name())
		for i, p := range dd.Profiles {
			fmt.Printf("  %-8s %5.1f%%\n", p.Name, score.PerDevice[i]*100)
			pcts = append(pcts, score.PerDevice[i]*100)
		}
		fmt.Printf("  mean %.1f%%  worst %.1f%%  variance %.2f pp²\n",
			metrics.Mean(pcts), score.WorstAcc*100, score.Variance)
	}
}
