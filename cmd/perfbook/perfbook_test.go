package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"heteroswitch/internal/frand"
)

// The nearest-rank rule (index ceil(q·n)−1) on values that are their own
// rank: the q-quantile of 1..n is ceil(q·n).
func TestPercentileNearestRank(t *testing.T) {
	for _, n := range []int{1, 10, 102, 50000} {
		vs := make([]float64, n)
		for i, p := range frand.New(uint64(n)).Perm(n) {
			vs[i] = float64(p + 1)
		}
		for _, q := range []float64{0, 0.5, 0.9, 0.99, 0.999, 1} {
			want := math.Max(1, math.Ceil(q*float64(n)))
			if got := percentile(vs, q); got != want {
				t.Errorf("n=%d q=%g: got %g, want %g", n, q, got, want)
			}
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty input: got %g, want 0", got)
	}
}

func TestSelfTimes(t *testing.T) {
	at := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	spans := []span{
		{Name: "round", Start: at(0), End: at(100), Parent: -1},
		{Name: "update", Start: at(10), End: at(50), Parent: 0},  // worker 0
		{Name: "update", Start: at(30), End: at(70), Parent: 0},  // worker 1, overlaps the first
		{Name: "update", Start: at(80), End: at(120), Parent: 0}, // runs past its parent: clipped
		{Name: "kernel", Start: at(15), End: at(25), Parent: 1},  // nested
		{Name: "orphan", Start: at(200), End: at(230), Parent: -1},
	}
	want := []time.Duration{at(100 - 60 - 20), at(40 - 10), at(40), at(40), at(10), at(30)}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("span %d (%s): self %v, want %v", i, spans[i].Name, got, want[i])
		}
	}
}

func TestEngineSelfTakesThePerRoundMaximum(t *testing.T) {
	at := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	// Two rounds whose slower worker alternates: the whole-run sums per lane
	// are equal (40 each), the per-round maxima are 30 and 30.
	spans := []span{
		{Name: "round", Start: at(0), End: at(40), Parent: -1},
		{Name: "LocalUpdate", Start: at(0), End: at(30), Parent: 0, Lane: 0},
		{Name: "LocalUpdate", Start: at(0), End: at(10), Parent: 0, Lane: 1},
		{Name: "round", Start: at(40), End: at(80), Parent: -1},
		{Name: "LocalUpdate", Start: at(40), End: at(50), Parent: 3, Lane: 0},
		{Name: "LocalUpdate", Start: at(40), End: at(70), Parent: 3, Lane: 1},
	}
	engine, wall, updates, _ := engineSelf(spans, "round")
	if engine != at(20) || wall != at(80) || updates != 4 {
		t.Errorf("engine %v wall %v updates %d, want 20ms 80ms 4", engine, wall, updates)
	}
}

// The reported cost of a call is the shortest time it took on any pass;
// with two clients a pass lasts as long as the slower client's calls.
func TestFastestCalls(t *testing.T) {
	passes := []passResult{
		{callMs: []float64{10, 50, 10, 30}, lanes: 2},
		{callMs: []float64{40, 20, 15, 10}, lanes: 2},
		{callMs: []float64{1, 1}, lanes: 2}, // stopped on an error: ignored
	}
	got := fastestCalls(passes)
	want := []float64{10, 20, 10, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fastest calls %v, want %v", got, want)
		}
	}
	if passes[0].callMs[1] != 50 {
		t.Error("fastestCalls modified its input")
	}
	if sec := callSeconds(got, 2); sec != 0.030 {
		t.Errorf("two lanes of 30 ms and 20 ms: %g s, want 0.030", sec)
	}
	if sec := callSeconds(got, 0); sec != 0.050 {
		t.Errorf("one lane of 50 ms: %g s, want 0.050", sec)
	}
}

func TestVerdict(t *testing.T) {
	tight := func(v float64) metricSummary { return metricSummary{Value: v, Min: v * 0.99, Max: v * 1.01} }
	wide := func(lo, v, hi float64) metricSummary { return metricSummary{Value: v, Min: lo, Max: hi} }
	for _, c := range []struct {
		name         string
		old, new     metricSummary
		higherBetter bool
		want         string
	}{
		{"lower metric within the bound", tight(100), tight(105), false, "same"},
		{"lower metric fell", tight(100), tight(80), false, "better"},
		{"lower metric rose", tight(100), tight(120), false, "worse"},
		{"higher metric rose", tight(100), tight(120), true, "better"},
		{"higher metric fell", tight(100), tight(80), true, "worse"},
		{"spread wider than the bound, ranges overlap", wide(80, 100, 120), tight(105), false, "unresolved"},
		{"wide spread, every new pass beats every old pass", wide(80, 100, 120), wide(60, 70, 79), false, "better"},
		{"wide spread, every new pass loses to every old pass", wide(80, 100, 120), wide(121, 130, 150), false, "worse"},
		{"wide spread on a higher metric, every new pass wins", wide(80, 100, 120), wide(121, 130, 150), true, "better"},
	} {
		if got := verdict(c.old, c.new, c.higherBetter, 0.10); got != c.want {
			t.Errorf("%s: got %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, cpu string, rate float64, failed int) string {
		wr := &workloadResult{Correct: true, Attempted: 100, Failed: failed, EndToEnd: map[string]metricSummary{}}
		for _, m := range endToEndMetrics {
			wr.EndToEnd[m.Name] = metricSummary{Value: 10, Min: 9.9, Max: 10.1, Unit: m.Unit}
		}
		wr.EndToEnd["throughput_per_s"] = metricSummary{Value: rate, Min: rate * 0.99, Max: rate * 1.01, Unit: "1/s"}
		b, err := json.Marshal(runResult{
			Fingerprint: &fingerprint{CPUModel: cpu, GOMAXPROCS: 2},
			Workloads:   map[string]*workloadResult{"serve_sim": wr},
		})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", "cpu A", 1000, 0)
	var out bytes.Buffer
	if err := compareFiles(&out, base, write("same.json", "cpu A", 1020, 0)); err != nil {
		t.Errorf("2 %% faster: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "same") {
		t.Errorf("no row reads same:\n%s", out.String())
	}
	if err := compareFiles(&out, base, write("slow.json", "cpu A", 700, 0)); err == nil {
		t.Error("30 % slower: no error")
	}
	if err := compareFiles(&out, base, write("failing.json", "cpu A", 1000, 3)); err == nil {
		t.Error("higher failed share: no error")
	}
	if err := compareFiles(&out, base, write("other.json", "cpu B", 1000, 0)); err == nil {
		t.Error("different CPU model: no error")
	}
}

// BENCHMARK.json at the repository root is what this program defines, and
// every name in it is well formed and used once.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	want, err := manifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from `perfbook -manifest`; regenerate it: go run ./cmd/perfbook -manifest > BENCHMARK.json")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is malformed", n)
		}
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: unit %q is malformed", n, u)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloadSpecs {
		check(w.Name, "")
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range endToEndMetrics {
		check(m.Name, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s end-to-end metric in s, lower is better")
	}
	for _, m := range perLayerMetrics {
		check(m.Name, m.Unit)
	}
	if n := len(perLayerMetrics); n > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", n)
	}
	if len(want) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, the contract allows 64 KiB", len(want))
	}
}

// exactRepeatMetrics are the per-layer metrics that are seeded counts or
// virtual-time results: runs of one seed on one commit agree on them
// exactly.
var exactRepeatMetrics = []string{
	"fl.bytes_up_per_round",
	"fl.async_reissues", "fl.async_failed", "fl.async_rejected", "fl.async_stale_dropped",
	"fl.async_deferred", "fl.async_skipped", "fl.async_mean_staleness", "fl.async_lost_share", "fl.async_vtime_end",
	"serve.sim_served", "serve.sim_shed_queue", "serve.sim_shed_deadline", "serve.sim_shed_share",
	"serve.sim_batches", "serve.sim_max_queue", "serve.sim_mean_batch", "serve.sim_vp99",
	"serve.sim_vthroughput", "serve.sim_digest_stable",
}

func smokeConfig() runConfig {
	return runConfig{workload: "all", seed: 42, traced: true, sz: smokeSizes(), probeBudget: time.Millisecond, expScale: 0.2}
}

// The -smoke run: every workload at a small fraction of its operation
// count, every correctness check on, traced pass and probes included. Two
// runs in one process must agree on every digest and every seeded count,
// and the names the run reports must be exactly the manifest's.
func TestSmokeRunsRepeatExactly(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	start := time.Now()
	cfg := smokeConfig()
	cfg.spansPath = filepath.Join(t.TempDir(), "spans.json")
	a, err := runBenchmark(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("one smoke run: %v (the issue's target is under 10 s on the reference box)", time.Since(start))
	b, err := runBenchmark(smokeConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Workloads) != len(workloadSpecs) {
		t.Fatalf("%d workloads ran, the manifest has %d", len(a.Workloads), len(workloadSpecs))
	}
	for _, w := range workloadSpecs {
		wa, wb := a.Workloads[w.Name], b.Workloads[w.Name]
		if wa == nil || wb == nil {
			t.Fatalf("%s did not run", w.Name)
		}
		if !wa.Correct || !wb.Correct || wa.Failed+wb.Failed > 0 {
			t.Errorf("%s: correctness checks failed: %v %v", w.Name, wa.Errors, wb.Errors)
		}
		if wa.Digest == "" || wa.Digest != wb.Digest {
			t.Errorf("%s: digests %q and %q", w.Name, wa.Digest, wb.Digest)
		}
		if wa.Attempted != wb.Attempted || wa.Attempted == 0 {
			t.Errorf("%s: attempted %d and %d", w.Name, wa.Attempted, wb.Attempted)
		}
		for _, m := range endToEndMetrics {
			if s, ok := wa.EndToEnd[m.Name]; !ok || !(s.Value > 0) {
				t.Errorf("%s: end-to-end metric %s is %v", w.Name, m.Name, s.Value)
			}
		}
		if len(wa.EndToEnd) != len(endToEndMetrics) {
			t.Errorf("%s reports %d end-to-end metrics, the manifest has %d", w.Name, len(wa.EndToEnd), len(endToEndMetrics))
		}
	}
	for _, m := range perLayerMetrics {
		if _, ok := a.PerLayer[m.Name]; !ok {
			t.Errorf("per-layer metric %s is in the manifest but was not measured", m.Name)
		}
	}
	for name, v := range a.PerLayer {
		if _, ok := perLayerIndex[name]; !ok {
			t.Errorf("per-layer metric %s was measured but is not in the manifest", name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("per-layer metric %s is %v", name, v)
		}
	}
	// Seeded counts repeat exactly.
	for _, name := range exactRepeatMetrics {
		if a.PerLayer[name] != b.PerLayer[name] {
			t.Errorf("%s: %v and %v on two runs of one seed", name, a.PerLayer[name], b.PerLayer[name])
		}
	}
	if a.PerLayer["serve.sim_shed_queue"] == 0 || a.PerLayer["serve.sim_shed_deadline"] == 0 {
		t.Error("serve_sim must shed by both mechanisms")
	}

	// The last line of a run, as the contract wants it.
	line, err := contractLine(a, "all", true)
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		Correct   *bool `json:"correct"`
		Attempted *int  `json:"attempted"`
		Failed    *int  `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&parsed); err != nil {
		t.Fatal(err)
	}
	if parsed.Correct == nil || !*parsed.Correct || parsed.Attempted == nil || *parsed.Attempted < 1 || parsed.Failed == nil || *parsed.Failed != 0 {
		t.Errorf("contract line %s", line)
	}
	if len(parsed.Metrics) != len(perLayerMetrics) {
		t.Errorf("contract line has %d metrics, the manifest %d", len(parsed.Metrics), len(perLayerMetrics))
	}

	// The trace is loadable and covers every span kind the issue lists.
	raw, err := os.ReadFile(cfg.spansPath)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, e := range trace.TraceEvents {
		if e.Ph != "X" || e.Dur < 0 {
			t.Fatalf("event %+v", e)
		}
		kinds[e.Name]++
	}
	for _, want := range []string{
		"experiments.BuildDeviceData", "fl.BuildPopulation", "fl.NewServer", "fl.NewAsyncServer",
		"fl.Server.RunRound", "fl.AsyncServer.RunRound", "LocalUpdate", "experiments.PerDeviceAccuracies",
		"serve.NewServer", "serve.PredictInto", "serve.Store.Republish", "serve.RunLoad",
	} {
		if kinds[want] == 0 {
			t.Errorf("no %s span in the trace", want)
		}
	}
}

// An untraced run of one workload reports exactly the end-to-end metrics.
func TestContractLineUntraced(t *testing.T) {
	cfg := runConfig{workload: "serve_sim", seed: 7, sz: smokeSizes()}
	res, err := runBenchmark(cfg)
	if err != nil {
		t.Fatal(err)
	}
	line, err := contractLine(res, cfg.workload, false)
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		Metrics map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(line, &parsed); err != nil {
		t.Fatal(err)
	}
	for _, m := range endToEndMetrics {
		got, ok := parsed.Metrics[m.Name]
		if !ok || got.Unit != m.Unit || !(got.Value > 0) {
			t.Errorf("%s: %+v", m.Name, got)
		}
	}
	if len(parsed.Metrics) != len(endToEndMetrics) {
		t.Errorf("%d metrics in %s", len(parsed.Metrics), line)
	}
	if _, err := runBenchmark(runConfig{workload: "no_such_workload", sz: smokeSizes()}); err == nil {
		t.Error("unknown workload: no error")
	}
}
