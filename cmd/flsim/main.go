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

	"heteroswitch/internal/core"
	"heteroswitch/internal/dataset"
	"heteroswitch/internal/experiments"
	"heteroswitch/internal/fl"
	"heteroswitch/internal/metrics"
	"heteroswitch/internal/models"
	"heteroswitch/internal/nn"
	"heteroswitch/internal/tensor"
)

func strategyFor(name string, totalClients int) (fl.Strategy, error) {
	switch name {
	case "fedavg":
		return fl.FedAvg{}, nil
	case "fedprox":
		return &fl.FedProx{Mu: 1e-1}, nil
	case "qfedavg":
		return &fl.QFedAvg{Q: 1e-6}, nil
	case "scaffold":
		return &fl.Scaffold{TotalClients: totalClients}, nil
	case "heteroswitch":
		return core.New(), nil
	case "isp-transform":
		return core.NewWithMode(core.ModeTransformOnly), nil
	case "isp-swad":
		return core.NewWithMode(core.ModeTransformSWAD), nil
	default:
		return nil, fmt.Errorf("unknown method %q", name)
	}
}

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
		seed     = flag.Uint64("seed", 42, "random seed")
		workers  = flag.Int("workers", 4, "parallel client trainers")
		intraop  = flag.Int("intraop", 0, "total intra-op kernel parallelism budget, split across workers (0 = GOMAXPROCS, 1 = serial kernels; results are bit-identical at every setting)")
		backend  = flag.String("kernel-backend", tensor.ActiveBackend().String(), "matmul kernel backend for the frozen eval path: auto (packed when profitable), serial (bit-identical oracle kernels), packed (force the cache-blocked kernel), int8 (force the quantized weight-stationary kernel, documented-tolerance tier); training always uses the oracle kernels; default honors HETEROSWITCH_KERNEL_BACKEND")
		logEvery = flag.Int("log-every", 10, "print loss every N rounds")

		async      = flag.Bool("async", false, "asynchronous staleness-aware aggregation on a deterministic virtual-time simulation (no round waits for its stragglers)")
		alpha      = flag.Float64("staleness-alpha", 0.5, "polynomial staleness discount 1/(1+s)^alpha for async folds (0 = no discount)")
		latency    = flag.String("latency-model", "straggler:0.5,2,0.15,8", "virtual client latency: zero, const:D, uniform:LO,HI, straggler:LO,HI,P,FACTOR")
		asyncDepth = flag.Int("async-depth", 2, "in-flight async jobs as a multiple of K (1 = no overlap, so no staleness)")

		faultSpec     = flag.String("faults", "", "seeded fault injection: crash:P, flaky:P,R, corrupt:P,MODE, churn:PERIOD,ON, combined with '+' (empty = fault-free; crash/flaky/churn need -async, crash/flaky also -fault-timeout)")
		maxNorm       = flag.Float64("max-delta-norm", 0, "update validation gate: reject client deltas with non-finite values or L2 norm above this (0 = gate off, unless -faults is set, then +Inf = non-finite check only)")
		faultTimeout  = flag.Float64("fault-timeout", 0, "async per-job virtual timeout before deterministic reissue (0 = no timeouts, the pre-fault behavior)")
		faultBackoff  = flag.Float64("fault-backoff", 0, "base virtual reissue backoff, doubled each attempt (needs -fault-timeout)")
		faultAttempts = flag.Int("fault-attempts", 0, "max dispatch attempts per job before its client counts failed (0 = 3 when timeouts are on)")
		maxStale      = flag.Int("max-staleness", 0, "drop async results staler than this many aggregation windows instead of folding them (0 = fold everything)")
	)
	flag.Parse()
	kb, err := tensor.ParseBackend(*backend)
	if err != nil {
		fatal(err)
	}
	tensor.SetBackend(kb)
	strat, err := strategyFor(*method, *clients)
	if err != nil {
		fatal(err)
	}

	opts := experiments.DefaultOptions()
	opts.Seed = *seed
	opts.Workers = *workers

	fmt.Printf("building device federation (9 devices, %d scenes/class)...\n", *perClass)
	dd, err := experiments.BuildDeviceData(opts, *perClass, 4, dataset.ModeProcessed)
	if err != nil {
		fatal(err)
	}
	builder, err := models.BuilderFor(models.Arch(*model), *seed, 3, dd.Classes)
	if err != nil {
		fatal(err)
	}
	cfg := fl.Config{
		Rounds:          *rounds,
		ClientsPerRound: *k,
		BatchSize:       *batch,
		LocalEpochs:     *epochs,
		LR:              *lr,
		Seed:            *seed,
		Workers:         *workers,
		IntraOp:         *intraop,
	}
	opts.Faults, opts.MaxDeltaNorm = *faultSpec, *maxNorm
	if err := opts.ApplyRobustness(&cfg); err != nil {
		fatal(err)
	}
	counts := experiments.MarketShareCounts(dd, *clients)
	pop, err := fl.BuildPopulation(dd.Train, counts, *seed)
	if err != nil {
		fatal(err)
	}
	if cfg.ClientsPerRound > len(pop) {
		cfg.ClientsPerRound = len(pop)
	}
	var net *nn.Network
	if *async {
		acfg, err := experiments.AsyncOptions{
			StalenessAlpha: *alpha,
			LatencyModel:   *latency,
			Depth:          *asyncDepth,
			Timeout:        *faultTimeout,
			RetryBackoff:   *faultBackoff,
			MaxAttempts:    *faultAttempts,
			MaxStaleness:   *maxStale,
		}.Config(cfg.ClientsPerRound, *seed)
		if err != nil {
			fatal(err)
		}
		srv, err := fl.NewAsyncServer(cfg, builder, nn.SoftmaxCrossEntropy{}, strat, pop, acfg)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("running %s / %s ASYNC: N=%d K=%d depth=%d alpha=%g latency=%s T=%d lr=%g faults=%s\n",
			strat.Name(), *model, len(pop), cfg.ClientsPerRound, *asyncDepth, *alpha, *latency, *rounds, *lr, cfg.Faults.String())
		var reissues, failed, rejected, staleDropped, deferred int
		var wasted int64
		srv.Run(func(s fl.AsyncRoundStats) {
			reissues += s.Reissues
			failed += s.Failed
			rejected += len(s.Rejected)
			staleDropped += s.StaleDropped
			deferred += s.Deferred
			wasted += s.BytesWasted
			if (*logEvery > 0 && (s.Round+1)%*logEvery == 0) || s.Round == *rounds-1 {
				fmt.Printf("round %4d  train-loss %.4f  init-loss %.4f  vtime %8.1f  staleness %.2f (max %d)  discount %.3f\n",
					s.Round+1, s.MeanLoss, s.MeanInit, s.VirtualTime, s.MeanStaleness, s.MaxStaleness, s.MeanDiscount)
			}
		})
		if cfg.Faults.Enabled() || *faultTimeout > 0 || *maxStale > 0 || cfg.MaxDeltaNorm > 0 {
			fmt.Printf("chaos: reissues=%d failed=%d rejected=%d stale-dropped=%d deferred=%d bytes-wasted=%d\n",
				reissues, failed, rejected, staleDropped, deferred, wasted)
		}
		net = srv.GlobalNet()
	} else {
		srv, err := fl.NewServer(cfg, builder, nn.SoftmaxCrossEntropy{}, strat, pop)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("running %s / %s: N=%d K=%d B=%d E=%d T=%d lr=%g\n",
			strat.Name(), *model, len(pop), cfg.ClientsPerRound, *batch, *epochs, *rounds, *lr)
		var rejected int
		var wasted int64
		srv.Run(func(s fl.RoundStats) {
			rejected += len(s.Rejected)
			wasted += s.BytesWasted
			if (*logEvery > 0 && (s.Round+1)%*logEvery == 0) || s.Round == *rounds-1 {
				fmt.Printf("round %4d  train-loss %.4f  init-loss %.4f\n", s.Round+1, s.MeanLoss, s.MeanInit)
			}
		})
		if cfg.Faults.Enabled() || cfg.MaxDeltaNorm > 0 {
			fmt.Printf("chaos: rejected=%d bytes-wasted=%d\n", rejected, wasted)
		}
		net = srv.GlobalNet()
	}
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
