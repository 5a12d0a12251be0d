package serve

import (
	"strings"
	"testing"
)

// publishCopyAt publishes a value-copy of the current weights at virtual
// instant at — the store-side half of what a wired trainer does on every
// finalized window.
func publishCopyAt(t *testing.T, s *Server, at float64) {
	t.Helper()
	v, w := s.Store().Acquire()
	buf := s.Store().TakeBuffer()
	for i, p := range w.Params {
		buf.Params[i].CopyFrom(p)
	}
	for i, st := range w.States {
		buf.States[i].CopyFrom(st)
	}
	s.Store().Release(v)
	if err := s.PublishAt(at, buf); err != nil {
		t.Fatal(err)
	}
}

func wiredRun(t *testing.T, intraop int) Report {
	t.Helper()
	cfg := Config{MaxBatch: 4, BatchBudget: 0.2, Workers: 2, IntraOp: intraop, Flush: FlushEDF,
		Admission: AdmissionConfig{Deadline: 20}}
	s := testServer(t, cfg)
	lc := LoadConfig{
		Requests:    200,
		Concurrency: 8,
		Arrival:     ClosedLoop{Think: 0.3, Seed: 11},
		Service:     AffineService{Base: 1, PerItem: 0.25},
		Inputs:      testInputs(8),
	}
	if err := s.BeginTrainLoad(lc); err != nil {
		t.Fatal(err)
	}
	// Ten publishes at fixed instants, like a trainer finalizing windows.
	for i := 1; i <= 10; i++ {
		publishCopyAt(t, s, float64(i)*2)
	}
	rep, err := s.FinishTrainLoad()
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Store().Version(); got != 10 {
		t.Fatalf("store at version %d after 10 publishes, want 10", got)
	}
	return rep
}

// A wired run tracks served-version staleness, accounts for every served
// request exactly once, and stays bit-reproducible across runs and intra-op
// budgets — the train-while-serve determinism contract.
func TestWiredLoadStalenessDeterminism(t *testing.T) {
	rep := wiredRun(t, 2)
	if !rep.StaleTracked {
		t.Fatal("wired run did not track staleness")
	}
	var total int64
	for _, c := range rep.StaleHist {
		total += c
	}
	if total != int64(rep.Served) {
		t.Fatalf("staleness histogram counts %d requests, served %d", total, rep.Served)
	}
	if rep.StaleMax < 1 {
		t.Fatalf("StaleMax=%d; requests in flight across a publish must observe staleness", rep.StaleMax)
	}
	if rep.StaleMin != 0 {
		t.Fatalf("StaleMin=%d; requests served after the last publish are fresh", rep.StaleMin)
	}
	if rep.StaleMean < float64(rep.StaleMin) || rep.StaleMean > float64(rep.StaleMax) {
		t.Fatalf("StaleMean=%g outside [%d, %d]", rep.StaleMean, rep.StaleMin, rep.StaleMax)
	}
	if !strings.Contains(rep.String(), "staleness served min=") ||
		!strings.Contains(rep.String(), "staleness histogram:") {
		t.Fatalf("wired report does not render the staleness block:\n%s", rep)
	}

	if again := wiredRun(t, 2); rep.String() != again.String() || rep != again {
		t.Fatalf("wired replay diverged:\n%s\nvs\n%s", rep, again)
	}
	if wide := wiredRun(t, 5); rep.String() != wide.String() {
		t.Fatalf("wired run varies with intra-op budget:\n%s\nvs\n%s", rep, wide)
	}
}

// Unwired reports must not know staleness exists: no StaleTracked, no
// staleness lines — byte-identical surface to the pre-wiring harness.
func TestUnwiredReportHasNoStaleness(t *testing.T) {
	r := mustLoad(t, Config{MaxBatch: 4, Workers: 1, IntraOp: 1}, LoadConfig{
		Requests: 40, Concurrency: 4, Inputs: testInputs(4), PublishEvery: 3,
	})
	if r.StaleTracked || strings.Contains(r.String(), "staleness") {
		t.Fatalf("unwired report leaked staleness fields:\n%s", r)
	}
}

func TestWiredLoadAPIMisuse(t *testing.T) {
	cfg := Config{MaxBatch: 2, Workers: 1, IntraOp: 1}
	s := testServer(t, cfg)
	lc := LoadConfig{Requests: 10, Concurrency: 2, Inputs: testInputs(2)}

	if err := s.PublishAt(1, testWeights(t)); err == nil {
		t.Fatal("PublishAt outside BeginTrainLoad must fail")
	}
	if _, err := s.FinishTrainLoad(); err == nil {
		t.Fatal("FinishTrainLoad outside BeginTrainLoad must fail")
	}
	churn := lc
	churn.PublishEvery = 2
	if err := s.BeginTrainLoad(churn); err == nil {
		t.Fatal("BeginTrainLoad must reject the synthetic PublishEvery churn knob")
	}

	if err := s.BeginTrainLoad(lc); err != nil {
		t.Fatal(err)
	}
	publishCopyAt(t, s, 3)
	if err := s.PublishAt(1, testWeights(t)); err == nil {
		t.Fatal("PublishAt into the serving past must fail")
	}
	rep, err := s.FinishTrainLoad()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 10 {
		t.Fatalf("requests=%d, want 10", rep.Requests)
	}
	// The load has drained; late publishes still advance the version stream.
	v := s.Store().Version()
	publishCopyAt(t, s, 1e9)
	if got := s.Store().Version(); got != v+1 {
		t.Fatalf("post-drain publish: version %d, want %d", got, v+1)
	}
}

// A wired load that drains inside the advance carrying a publish stops its
// clock at its last completion, not at the publish instant: it reports the
// VirtualTime and Throughput RunLoad reports for the same load.
func TestWiredDrainKeepsTheClock(t *testing.T) {
	cfg := Config{MaxBatch: 4, BatchBudget: 0.2, Workers: 2, IntraOp: 1}
	lc := LoadConfig{
		Requests:    20,
		Concurrency: 4,
		Arrival:     ClosedLoop{Think: 0.3, Seed: 11},
		Inputs:      testInputs(4),
	}
	want := mustLoad(t, cfg, lc)
	s := testServer(t, cfg)
	if err := s.BeginTrainLoad(lc); err != nil {
		t.Fatal(err)
	}
	publishCopyAt(t, s, 1000)
	got, err := s.FinishTrainLoad()
	if err != nil {
		t.Fatal(err)
	}
	if want.VirtualTime >= 1000 {
		t.Fatalf("the load ran to %g; it must drain before the publish at 1000", want.VirtualTime)
	}
	if got.VirtualTime != want.VirtualTime || got.Throughput != want.Throughput {
		t.Fatalf("wired run reports time %g and throughput %g, RunLoad %g and %g",
			got.VirtualTime, got.Throughput, want.VirtualTime, want.Throughput)
	}
	if v := s.Store().Version(); v != 1 {
		t.Fatalf("store at version %d after the drained publish, want 1", v)
	}
}
