// Command heterobench regenerates the paper's tables and figures from the
// simulated device federation.
//
// Usage:
//
//	heterobench -list
//	heterobench -exp table4 [-scale 1.0] [-seed 42] [-workers 8]
//	heterobench -exp all -scale 0.3
//
// -list prints the experiment ids (the registry's, experiments.Names()).
// Scale 1.0 is the full-size configuration; smaller scales run faster and
// preserve trends. Every flag's default is experiments.DefaultOptions.
// -async reruns the FL-driving harnesses on the asynchronous staleness-aware
// server (deterministic virtual-time simulation). async-sweep compares the
// two regimes under straggler latency distributions directly, on fixed arms
// that no -async flag changes. train-serve runs the async trainer and the
// serving stack on one virtual clock; its trainer takes the -async settings
// with or without -async, and an empty -latency-model there means
// uniform:0.5,2.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"heteroswitch/internal/experiments"
)

func main() {
	// Everything but the three flags below is declared and checked by
	// experiments.Options (BindFlags, Run).
	opts := experiments.DefaultOptions()
	opts.BindFlags(flag.CommandLine)
	exp := flag.String("exp", "", "experiment id to run, or 'all'")
	flag.Float64Var(&opts.Scale, "scale", opts.Scale, "workload scale factor")
	list := flag.Bool("list", false, "list available experiments")
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
		fmt.Printf("### %s (scale %.2f, seed %d, %.1fs)\n\n%s\n", name, opts.Scale, opts.Seed, time.Since(start).Seconds(), res)
	}
}
