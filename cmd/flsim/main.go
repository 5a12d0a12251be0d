// Command flsim runs a single federated-learning simulation over the
// Table-1 device population with a chosen aggregation method and model,
// printing per-round loss and the final per-device evaluation.
//
// Usage:
//
//	flsim -method heteroswitch -model mobilenetv3-tiny -rounds 100 -clients 100 -k 20
//	flsim -method fedavg -model simplecnn -rounds 50
//	flsim -method fedavg -async -staleness-alpha 0.5 -latency-model straggler:0.5,2,0.15,8
//
// Methods: fedavg, fedprox, qfedavg, scaffold, heteroswitch, isp-transform,
// isp-swad. -async switches any method to staleness-aware asynchronous
// aggregation on a deterministic virtual-time simulation.
package main

import (
	"flag"
	"fmt"
	"os"

	"heteroswitch/internal/dataset"
	"heteroswitch/internal/experiments"
	"heteroswitch/internal/fl"
	"heteroswitch/internal/metrics"
	"heteroswitch/internal/models"
	"heteroswitch/internal/nn"
)

func main() {
	var (
		method   = flag.String("method", "heteroswitch", "aggregation method")
		model    = flag.String("model", string(models.ArchMobileNet), "model architecture")
		rounds   = flag.Int("rounds", 100, "communication rounds (T)")
		clients  = flag.Int("clients", 100, "total clients (N)")
		k        = flag.Int("k", 20, "clients per round (K)")
		batch    = flag.Int("batch", 10, "local batch size (B)")
		epochs   = flag.Int("epochs", 1, "local epochs (E)")
		lr       = flag.Float64("lr", 0.1, "learning rate")
		perClass = flag.Int("per-class", 12, "training scenes per class per device")
		logEvery = flag.Int("log-every", 10, "print loss every N rounds")
	)
	// The shared flags are declared and checked by experiments.Options
	// (BindFlags, Apply); only the two defaults flsim disagrees on are set here.
	opts := experiments.DefaultOptions()
	opts.Workers, opts.Async.LatencyModel = 4, "straggler:0.5,2,0.15,8"
	opts.BindFlags(flag.CommandLine)
	flag.Parse()
	if err := opts.Apply(); err != nil {
		fatal(err)
	}
	strat, err := experiments.Method(*method, *clients)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("building device federation (9 devices, %d scenes/class)...\n", *perClass)
	dd, err := experiments.BuildDeviceData(opts, *perClass, 4, dataset.ModeProcessed)
	if err != nil {
		fatal(err)
	}
	builder, err := models.BuilderFor(models.Arch(*model), opts.Seed, 3, dd.Classes)
	if err != nil {
		fatal(err)
	}
	cfg := opts.FLConfig(*rounds, *k, *batch, *lr)
	cfg.LocalEpochs = *epochs
	srv, cfg, err := experiments.NewFL(opts, strat, dd.Train, experiments.MarketShareCounts(dd, *clients),
		cfg, builder, nn.SoftmaxCrossEntropy{})
	if err != nil {
		fatal(err)
	}
	async := opts.Async
	if async.Enabled {
		fmt.Printf("running %s / %s ASYNC: N=%d K=%d depth=%d alpha=%g latency=%s T=%d lr=%g faults=%s\n",
			strat.Name(), *model, *clients, cfg.ClientsPerRound, async.Depth, async.StalenessAlpha, async.LatencyModel, *rounds, *lr, cfg.Faults.String())
	} else {
		fmt.Printf("running %s / %s: N=%d K=%d B=%d E=%d T=%d lr=%g\n",
			strat.Name(), *model, *clients, cfg.ClientsPerRound, *batch, *epochs, *rounds, *lr)
	}
	var reissues, failed, rejected, staleDropped, deferred int
	var wasted int64
	srv.Run(func(s fl.RoundStats) {
		reissues += s.Reissues
		failed += s.Failed
		rejected += len(s.Rejected)
		staleDropped += s.StaleDropped
		deferred += s.Deferred
		wasted += s.BytesWasted
		if (*logEvery > 0 && (s.Round+1)%*logEvery == 0) || s.Round == *rounds-1 {
			fmt.Printf("round %4d  train-loss %.4f  init-loss %.4f", s.Round+1, s.MeanLoss, s.MeanInit)
			if async.Enabled {
				fmt.Printf("  vtime %8.1f  staleness %.2f (max %d)  discount %.3f",
					s.VirtualTime, s.MeanStaleness, s.MaxStaleness, s.MeanDiscount)
			}
			fmt.Println()
		}
	})
	chaos := cfg.Faults.Enabled() || cfg.MaxDeltaNorm > 0
	if async.Enabled {
		if chaos || async.Timeout > 0 || async.MaxStaleness > 0 {
			fmt.Printf("chaos: reissues=%d failed=%d rejected=%d stale-dropped=%d deferred=%d bytes-wasted=%d\n",
				reissues, failed, rejected, staleDropped, deferred, wasted)
		}
	} else if chaos {
		fmt.Printf("chaos: rejected=%d bytes-wasted=%d\n", rejected, wasted)
	}
	net := srv.GlobalNet()
	acc := experiments.PerDeviceAccuracies(net, dd, 16)
	fmt.Println("\nper-device test accuracy:")
	var accs []float64
	for i, p := range dd.Profiles {
		fmt.Printf("  %-8s %.1f%%\n", p.Name, acc[i]*100)
		accs = append(accs, acc[i]*100)
	}
	fmt.Printf("\naverage %.1f%%  worst %.1f%%  variance %.2f pp²\n",
		metrics.Mean(accs), metrics.Worst(accs), metrics.Variance(accs))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "flsim:", err)
	os.Exit(1)
}
