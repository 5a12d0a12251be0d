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
	)
	opts := experiments.DefaultOptions()
	opts.BindFlags(flag.CommandLine, "")
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

	opts.Scale = *scale
	opts.Seed = *seed
	if *workers > 0 {
		opts.Workers = *workers
	}
	opts.IntraOp = *intraop
	opts.KernelBackend = *backend

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
