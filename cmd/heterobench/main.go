// Command heterobench regenerates the paper's tables and figures from the
// simulated device federation.
//
// Usage:
//
//	heterobench -list
//	heterobench -exp table4 [-scale 1.0] [-seed 42] [-workers 8]
//	heterobench -exp all -scale 0.3
//
// Experiment ids are the registry's (experiments.Names(), printed by -list:
// fig1, table2, fig2, fig3, fig4, fig5, fig7, table4, table5, table6, fig8,
// ecg, fig9, ablation-*, async-sweep). Scale 1.0 is the full-size
// configuration; smaller scales run faster and preserve trends. -async
// reruns the FL-driving harnesses on the asynchronous staleness-aware server
// (deterministic virtual-time simulation); async-sweep compares the two
// regimes under straggler latency distributions directly.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"heteroswitch/internal/experiments"
	"heteroswitch/internal/tensor"
)

func main() {
	var (
		exp     = flag.String("exp", "", "experiment id to run, or 'all'")
		scale   = flag.Float64("scale", 1.0, "workload scale factor")
		seed    = flag.Uint64("seed", 42, "master random seed")
		workers = flag.Int("workers", 0, "parallel workers (0 = auto)")
		intraop = flag.Int("intraop", 0, "total intra-op kernel parallelism budget, split across workers (0 = GOMAXPROCS, 1 = serial kernels; results are bit-identical at every setting)")
		backend = flag.String("kernel-backend", tensor.ActiveBackend().String(), "matmul kernel backend for the frozen eval path: auto (packed when profitable), serial (bit-identical oracle kernels), packed (force the cache-blocked kernel), int8 (force the quantized weight-stationary kernel, documented-tolerance tier); training always uses the oracle kernels; default honors HETEROSWITCH_KERNEL_BACKEND")
		list    = flag.Bool("list", false, "list available experiments")

		async      = flag.Bool("async", false, "run every harness strategy on the asynchronous staleness-aware server (virtual-time simulation)")
		alpha      = flag.Float64("staleness-alpha", 0.5, "polynomial staleness discount 1/(1+s)^alpha for async folds (0 = no discount); also parameterizes async-sweep")
		latency    = flag.String("latency-model", "", "virtual client latency for -async runs: zero, const:D, uniform:LO,HI, straggler:LO,HI,P,FACTOR (default zero; async-sweep overrides with its arms)")
		asyncDepth = flag.Int("async-depth", 2, "in-flight async jobs as a multiple of each harness's K")

		faultSpec     = flag.String("faults", "", "seeded fault injection for the FL harnesses: crash:P, flaky:P,R, corrupt:P,MODE, churn:PERIOD,ON, combined with '+' (empty = fault-free; crash/flaky/churn need -async, crash/flaky also -fault-timeout)")
		maxNorm       = flag.Float64("max-delta-norm", 0, "update validation gate: reject client deltas with non-finite values or L2 norm above this (0 = gate off, unless -faults is set, then +Inf = non-finite check only)")
		faultTimeout  = flag.Float64("fault-timeout", 0, "async per-job virtual timeout before deterministic reissue (0 = no timeouts)")
		faultBackoff  = flag.Float64("fault-backoff", 0, "base virtual reissue backoff, doubled each attempt (needs -fault-timeout)")
		faultAttempts = flag.Int("fault-attempts", 0, "max dispatch attempts per job before its client counts failed (0 = 3 when timeouts are on)")
		maxStale      = flag.Int("max-staleness", 0, "drop async results staler than this many aggregation windows instead of folding them (0 = fold everything)")
	)
	flag.Parse()

	if *list {
		for _, name := range experiments.Names() {
			fmt.Println(name)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "heterobench: -exp required (or -list); e.g. -exp table4")
		os.Exit(2)
	}

	opts := experiments.DefaultOptions()
	opts.Scale = *scale
	opts.Seed = *seed
	if *workers > 0 {
		opts.Workers = *workers
	}
	opts.IntraOp = *intraop
	opts.KernelBackend = *backend
	opts.Async = experiments.AsyncOptions{
		Enabled:        *async,
		StalenessAlpha: *alpha,
		LatencyModel:   *latency,
		Depth:          *asyncDepth,
		Timeout:        *faultTimeout,
		RetryBackoff:   *faultBackoff,
		MaxAttempts:    *faultAttempts,
		MaxStaleness:   *maxStale,
	}
	opts.Faults = *faultSpec
	opts.MaxDeltaNorm = *maxNorm

	names := []string{*exp}
	if *exp == "all" {
		names = experiments.Names()
	}
	for _, name := range names {
		start := time.Now()
		res, err := experiments.Run(name, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "heterobench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("### %s (scale %.2f, seed %d, %.1fs)\n\n%s\n", name, *scale, *seed, time.Since(start).Seconds(), res)
	}
}
