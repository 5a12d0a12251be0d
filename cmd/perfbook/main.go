// Command perfbook is the repository's benchmark: five seeded workloads
// driven through the public functions of experiments, fl, core, serve and
// nn, end-to-end metrics measured with tracing off, and a separate traced
// pass that records spans around every call into a layer plus a fixed set
// of single-layer probes. See README.md in this directory and
// BENCHMARK.json at the repository root.
//
//	go run ./cmd/perfbook --workload serve_wall --seed 42 --seconds 10 --trace 0
//	go run ./cmd/perfbook -trace 1 -spans spans.json -out new.json
//	go run ./cmd/perfbook -compare old.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// runConfig is one invocation's settings.
type runConfig struct {
	workload string // one workload's name, or "all"
	seed     uint64
	seconds  float64 // pass time per selected workload
	traced   bool
	sz       sizes
	// probeBudget bounds each probe's timing loop; expScale scales the
	// experiments.* probes' Scale (1 outside -smoke).
	probeBudget time.Duration
	expScale    float64
	spansPath   string
}

// metricSummary is one metric of one workload: the reported value and the
// per-pass (or per-set-up) values beside it.
type metricSummary struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	N      int       `json:"n"`
	Values []float64 `json:"values,omitempty"`
}

func summary(value float64, unit string, values []float64) metricSummary {
	lo, hi := minMax(values)
	return metricSummary{Value: value, Unit: unit, Min: lo, Max: hi, N: len(values), Values: values}
}

// callSeconds is the time a pass spent in its timed calls: their sum, or
// with several concurrent sequences of calls the longest sequence's sum.
func callSeconds(callMs []float64, lanes int) float64 {
	lanes = max(lanes, 1)
	per := len(callMs) / lanes
	var longest float64
	for c := 0; c < lanes; c++ {
		var sum float64
		for _, t := range callMs[c*per : (c+1)*per] {
			sum += t
		}
		longest = max(longest, sum)
	}
	return longest / 1e3
}

// fastestCalls returns, for every timed call of a pass, the shortest time
// it took on any of the passes.
func fastestCalls(passes []passResult) []float64 {
	fastest := append([]float64(nil), passes[0].callMs...)
	for _, pr := range passes[1:] {
		if len(pr.callMs) != len(fastest) {
			continue // a pass that stopped on an error; the result reports it
		}
		for i, t := range pr.callMs {
			fastest[i] = min(fastest[i], t)
		}
	}
	return fastest
}

// workloadResult is everything one workload reported in a run.
type workloadResult struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Passes    int                      `json:"passes"`
	Calls     int                      `json:"calls"`
	Digest    string                   `json:"digest"`
	Errors    []string                 `json:"errors,omitempty"`
	EndToEnd  map[string]metricSummary `json:"end_to_end,omitempty"`
}

// runResult is the content of a result file (-out).
type runResult struct {
	Fingerprint *fingerprint               `json:"fingerprint,omitempty"`
	Seed        uint64                     `json:"seed"`
	Seconds     float64                    `json:"seconds"`
	Sizes       sizes                      `json:"sizes"`
	Workloads   map[string]*workloadResult `json:"workloads"`
	PerLayer    map[string]float64         `json:"per_layer,omitempty"`
	LayerSelfS  map[string]float64         `json:"layer_self_seconds,omitempty"`
}

// passLog accumulates the set-ups and passes of one workload.
type passLog struct {
	w      workload
	setupS []float64
	passes []passResult // untraced passes
	traced []passResult
}

func (l *passLog) wall() float64 {
	var s float64
	for _, pr := range l.passes {
		s += pr.wall
	}
	for _, pr := range l.traced {
		s += pr.wall
	}
	return s
}

func timedPass(w workload, tr *tracer) passResult {
	t0 := time.Now()
	pr := w.pass(tr)
	pr.wall = time.Since(t0).Seconds()
	return pr
}

// runBenchmark executes one invocation and returns what it measured. It
// returns an error only when the benchmark itself could not run; failed
// correctness checks are reported in the result.
func runBenchmark(cfg runConfig) (*runResult, error) {
	runtime.GOMAXPROCS(2)
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	var logs []*passLog
	selected := map[string]bool{}
	for _, w := range newWorkloads(cfg.sz) {
		if cfg.workload == "all" || cfg.workload == w.name() {
			logs = append(logs, &passLog{w: w})
			selected[w.name()] = true
		}
	}
	if len(logs) == 0 {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}

	// Set-up. With tracing off it is repeated — five times, and up to forty
	// while it has taken under 2 s in all — and the median reported, so
	// setup_s is as steady as the other metrics; the last set-up is the one
	// the passes run on.
	for _, l := range logs {
		least, most, floor := 5, 40, 2*time.Second
		if cfg.traced || cfg.seconds == 0 {
			least, most = 1, 1
		}
		var total time.Duration
		for i := 0; i < least || (i < most && total < floor); i++ {
			runtime.GC()
			t0 := time.Now()
			if err := l.w.setup(cfg.seed, tr); err != nil {
				return nil, fmt.Errorf("%s: set-up: %w", l.w.name(), err)
			}
			d := time.Since(t0)
			total += d
			l.setupS = append(l.setupS, d.Seconds())
		}
	}

	// Passes, interleaved over the selected workloads (A B C, A B C, …),
	// each repeating until its passes have taken the budget, two at least so
	// the digests can be compared. A traced run makes pairs of an untraced
	// and a traced pass — the pair gives the tracing overhead — on half the
	// budget; the probes take the other half.
	budget := cfg.seconds
	if cfg.traced {
		budget /= 2
		// A traced run sets up once, so its first pass would run on a cold
		// machine; an untraced run's repeated set-ups have warmed it.
		for _, l := range logs {
			if budget > 0 {
				l.w.pass(nil)
			}
		}
	}
	for again := true; again; {
		again = false
		for _, l := range logs {
			n := len(l.passes) + len(l.traced)
			// Stop at the pass count nearest the budget: another pass would
			// overshoot by more than half its own length.
			if done := l.wall(); n >= 2 && done+done/float64(n)/2 >= budget {
				continue
			}
			again = true
			// Pairs alternate which of the two goes first, so a machine that
			// speeds up or slows down over the run biases neither.
			tracedFirst := cfg.traced && len(l.traced)%2 == 1
			if tracedFirst {
				l.traced = append(l.traced, timedPass(l.w, tr))
			}
			l.passes = append(l.passes, timedPass(l.w, nil))
			if cfg.traced && !tracedFirst {
				l.traced = append(l.traced, timedPass(l.w, tr))
			}
		}
	}

	res := &runResult{Seed: cfg.seed, Seconds: cfg.seconds, Sizes: cfg.sz, Workloads: map[string]*workloadResult{}}
	layer := map[string][]float64{}
	for _, l := range logs {
		res.Workloads[l.w.name()] = summarize(l, layer)
	}
	if cfg.traced {
		probed, err := runProbes(selected, cfg.seed, cfg.probeBudget, cfg.expScale)
		if err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
		res.PerLayer = probed
		for k, vs := range layer {
			res.PerLayer[k] = median(vs)
		}
		res.LayerSelfS = layerSelfSeconds(tr.since(0))
		if cfg.spansPath != "" {
			if err := tr.writeChromeTrace(cfg.spansPath); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

// summarize folds one workload's passes into its result, and appends the
// per-layer values its passes supplied to layer.
func summarize(l *passLog, layer map[string][]float64) *workloadResult {
	name := l.w.name()
	wr := &workloadResult{Correct: true, Passes: len(l.passes) + len(l.traced)}
	fail := func(format string, args ...any) {
		wr.Correct = false
		wr.Errors = append(wr.Errors, fmt.Sprintf(format, args...))
	}
	for i, pr := range append(append([]passResult(nil), l.passes...), l.traced...) {
		wr.Attempted += pr.attempted
		wr.Failed += pr.failed
		if pr.err != nil {
			fail("%v", pr.err)
		}
		if i == 0 {
			wr.Digest = pr.digest
		} else if pr.digest != wr.Digest {
			fail("%s: pass %d digest %q differs from pass 0 %q", name, i, pr.digest, wr.Digest)
		}
		for k, v := range pr.layer {
			layer[k] = append(layer[k], v)
		}
	}
	if wr.Failed > 0 {
		fail("%s: %d of %d checked calls failed", name, wr.Failed, wr.Attempted)
	}
	var rates, p50s, p90s, walls, secs []float64
	for _, pr := range l.passes {
		wr.Calls += len(pr.callMs)
		sec := callSeconds(pr.callMs, pr.lanes)
		rates = append(rates, pr.ops/sec)
		p50s = append(p50s, percentile(pr.callMs, 0.5))
		p90s = append(p90s, percentile(pr.callMs, 0.9))
		walls = append(walls, pr.wall)
		secs = append(secs, sec)
	}
	// Every pass makes the same calls on the same inputs, and the machine —
	// a shared VM whose neighbours slow it for seconds at a time — can only
	// add to a call's time, never take from it. So the reported cost of a
	// call is the shortest time it took on any pass, and throughput, the
	// percentiles and the pass time are taken over those per-call minima. On
	// the reference box this is three times steadier between runs than the
	// median over passes; the per-pass values stay in the summary for the
	// comparator's spread.
	fastest := fastestCalls(l.passes)
	first := l.passes[0]
	sec := callSeconds(fastest, first.lanes)
	untimed := math.Inf(1) // server builds, warm rounds, evaluations
	for i, pr := range l.passes {
		untimed = min(untimed, pr.wall-secs[i])
	}
	fastestSetup, _ := minMax(l.setupS)
	wr.EndToEnd = map[string]metricSummary{
		"setup_s":          summary(fastestSetup, "s", l.setupS),
		"throughput_per_s": summary(first.ops/sec, "1/s", rates),
		"call_ms_p50":      summary(percentile(fastest, 0.5), "ms", p50s),
		"call_ms_p90":      summary(percentile(fastest, 0.9), "ms", p90s),
		"pass_wall_s":      summary(sec+untimed, "s", walls),
	}
	if len(l.traced) > 0 {
		var tracedSecs []float64
		for _, pr := range l.traced {
			tracedSecs = append(tracedSecs, callSeconds(pr.callMs, pr.lanes))
		}
		layer["trace.overhead_share."+name] = []float64{median(tracedSecs)/median(secs) - 1}
	}
	return wr
}

// contractLine is the last line of standard output: exactly these keys,
// every metric as {value, unit}.
func contractLine(res *runResult, workload string, traced bool) ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: true, Metrics: map[string]mv{}}
	for name, wr := range res.Workloads {
		line.Correct = line.Correct && wr.Correct
		if workload != "all" && name != workload {
			continue
		}
		line.Attempted += wr.Attempted
		line.Failed += wr.Failed
		if traced {
			continue
		}
		for m, s := range wr.EndToEnd {
			key := m
			if workload == "all" {
				key = name + "." + m
			}
			line.Metrics[key] = mv{s.Value, s.Unit}
		}
	}
	if traced {
		// A layer the selected workload does not exercise did no work in
		// this run: its metrics read 0.
		for _, m := range perLayerMetrics {
			line.Metrics[m.Name] = mv{res.PerLayer[m.Name], m.Unit}
		}
		for name := range res.PerLayer {
			if _, ok := perLayerIndex[name]; !ok {
				return nil, fmt.Errorf("measured per-layer metric %s is not in the manifest", name)
			}
		}
	}
	return json.Marshal(line)
}

func printReport(res *runResult) {
	names := make([]string, 0, len(res.Workloads))
	for name := range res.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		wr := res.Workloads[name]
		fmt.Printf("workload %s: passes=%d calls=%d attempted=%d failed=%d correct=%v digest=%s\n",
			name, wr.Passes, wr.Calls, wr.Attempted, wr.Failed, wr.Correct, wr.Digest)
		for _, e := range wr.Errors {
			fmt.Printf("  CHECK FAILED: %s\n", e)
		}
		if res.PerLayer != nil {
			continue
		}
		for _, m := range endToEndMetrics {
			s := wr.EndToEnd[m.Name]
			fmt.Printf("  %-18s %14.6g %-4s  per-pass min %.6g max %.6g n=%d\n", m.Name, s.Value, s.Unit, s.Min, s.Max, s.N)
		}
	}
	if res.PerLayer == nil {
		return
	}
	fmt.Println("per-layer metrics (traced pass and single-goroutine probes; kernel FLOPs are computed from the shapes):")
	for _, m := range perLayerMetrics {
		if v, ok := res.PerLayer[m.Name]; ok {
			fmt.Printf("  %-48s %14.6g %s\n", m.Name, v, m.Unit)
		}
	}
	for _, w := range workloadSpecs {
		if o, ok := res.PerLayer["trace.overhead_share."+w.Name]; ok && math.Abs(o) > 0.05 {
			fmt.Printf("FLAG: traced and untraced passes of %s differ by %.1f %% (base: untraced); read its span-derived metrics with that in mind\n", w.Name, 100*o)
		}
	}
	fmt.Println("span self time by layer (s):")
	layers := make([]string, 0, len(res.LayerSelfS))
	for k := range res.LayerSelfS {
		layers = append(layers, k)
	}
	sort.Strings(layers)
	for _, k := range layers {
		fmt.Printf("  %-10s %10.4f\n", k, res.LayerSelfS[k])
	}
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbook:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbook", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "all", "workload to run: paper_table4, agg_sync_wide, agg_async_chaos, serve_wall, serve_sim, or all")
		seed     = fs.Uint64("seed", 42, "seed of every generated input (scenes, populations, request banks, arrival, latency and fault models)")
		seconds  = fs.Float64("seconds", runSeconds, "pass time per workload; whole fixed-size passes repeat until it is spent")
		trace    = fs.Int("trace", 0, "1 runs the traced pass and the layer probes and prints the per-layer metrics; 0 prints the end-to-end metrics")
		spans    = fs.String("spans", "", "with -trace 1, write the spans as Chrome trace-event JSON to this file")
		out      = fs.String("out", "", "write the full result (fingerprint, calibration, sizes, per-pass values) as JSON to this file")
		smoke    = fs.Bool("smoke", false, "run every workload once at a small fraction of its operation count, traced pass included")
		manifest = fs.Bool("manifest", false, "print BENCHMARK.json as this program defines it and exit")
		compare  = fs.Bool("compare", false, "compare two result files: perfbook -compare old.json new.json")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	args = fs.Args()
	if *manifest {
		b, err := manifestJSON()
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(b)
		return err
	}
	if *compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare wants two result files: old.json new.json")
		}
		return compareFiles(os.Stdout, args[0], args[1])
	}
	if len(args) > 0 {
		return fmt.Errorf("unexpected arguments %v", args)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace wants 0 or 1, have %d", *trace)
	}
	if !(*seconds > 0) {
		return fmt.Errorf("-seconds wants a positive number, have %g", *seconds)
	}
	cfg := runConfig{
		workload: *workload, seed: *seed, seconds: *seconds, traced: *trace == 1,
		sz: fullSizes(), expScale: 1, spansPath: *spans,
		// 200 ms per probe loop at the benchmark's run length; shorter runs
		// shrink it in proportion.
		probeBudget: min(200*time.Millisecond, time.Duration(*seconds/50*float64(time.Second))),
	}
	if *smoke {
		cfg.workload, cfg.traced, cfg.sz, cfg.seconds = "all", true, smokeSizes(), 0
		cfg.probeBudget, cfg.expScale = time.Millisecond, 0.2
	}
	res, err := runBenchmark(cfg)
	if err != nil {
		return err
	}
	if *out != "" {
		fp := takeFingerprint()
		res.Fingerprint = &fp
		b, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	printReport(res)
	line, err := contractLine(res, cfg.workload, cfg.traced)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	for name, wr := range res.Workloads {
		if !wr.Correct {
			return fmt.Errorf("%s: correctness checks failed: %v", name, wr.Errors)
		}
	}
	return nil
}
