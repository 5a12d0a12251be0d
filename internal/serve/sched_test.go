package serve

import (
	"math"
	"strings"
	"testing"
	"time"

	"heteroswitch/internal/frand"
	"heteroswitch/internal/nn"
)

// Nearest-rank order statistics: p-q is the smallest value with at least
// ⌈q·n⌉ observations at or below it. The old floor(q·(n-1)) indexing read a
// systematically low statistic (p99 of 500 read index 494 ≈ p98.8).
func TestQuantilesNearestRank(t *testing.T) {
	cases := []struct {
		n                 int
		wantP50, p95, p99 float64
	}{
		{n: 100, wantP50: 50, p95: 95, p99: 99},
		{n: 500, wantP50: 250, p95: 475, p99: 495},
		{n: 10, wantP50: 5, p95: 10, p99: 10},
		{n: 1, wantP50: 1, p95: 1, p99: 1},
	}
	for _, tc := range cases {
		// Feed the values in a scrambled order to prove quantiles sorts.
		lat := make([]float64, tc.n)
		for i := range lat {
			lat[i] = float64((i*7)%tc.n + 1)
		}
		var r Report
		r.quantiles(lat)
		if r.P50 != tc.wantP50 || r.P95 != tc.p95 || r.P99 != tc.p99 {
			t.Errorf("n=%d: p50/p95/p99 = %g/%g/%g, want %g/%g/%g",
				tc.n, r.P50, r.P95, r.P99, tc.wantP50, tc.p95, tc.p99)
		}
	}
}

// A failing Replica.Ensure at service start must roll back everything the
// batch holds — the busy slot, the borrowed replica, the version pin, the
// batch struct — and surface the error cleanly. The failure is provoked end
// to end: a wired publish installs weights of an incompatible architecture,
// so the next flushed batch pins a version no replica can load.
func TestEnsureErrorPathReleasesEverything(t *testing.T) {
	cfg := Config{MaxBatch: 1, Workers: 1, IntraOp: 1}
	s := testServer(t, cfg)
	lc := LoadConfig{
		Requests:    8,
		Concurrency: 1,
		Arrival:     ClosedLoop{Think: 0.5, Seed: 3},
		Service:     AffineService{Base: 1},
		Inputs:      testInputs(4),
	}
	if err := s.BeginTrainLoad(lc); err != nil {
		t.Fatal(err)
	}
	for s.ld.served < 2 {
		if !s.step() {
			t.Fatal("load drained before the bad publish")
		}
	}
	bad := nn.NewNetwork(nn.NewDense(frand.New(3), 4, 2)).Snapshot()
	if err := s.PublishAt(s.ld.clock.Now(), bad); err != nil {
		t.Fatalf("publishing mis-shaped weights should only fail at Ensure, got %v", err)
	}
	if _, err := s.FinishTrainLoad(); err == nil {
		t.Fatal("Ensure failure never surfaced from FinishTrainLoad")
	}
	if s.ld.err == nil {
		t.Fatal("load state lost the error")
	}
	if s.ld.busy != 0 {
		t.Fatalf("busy=%d after Ensure failure; the worker slot leaked", s.ld.busy)
	}
	if free := s.pool.Free(); free != cfg.Workers {
		t.Fatalf("pool has %d free replicas, want %d; the replica leaked", free, cfg.Workers)
	}
	if live := s.store.Live(); live != 1 {
		t.Fatalf("store has %d live versions, want 1 (the current); the version pin leaked", live)
	}
	if fc := s.store.vs.FreeCount(); fc < 1 {
		t.Fatalf("store free list has %d buffers; the retired version never recycled", fc)
	}
}

// nanAtSeq prices batch seq at NaN and every other batch at one unit.
type nanAtSeq struct{ seq int }

func (m nanAtSeq) Batch(_, seq int) float64 {
	if seq == m.seq {
		return math.NaN()
	}
	return 1
}

// A run that fails while other batches are unfinished gives back what they
// hold before it returns, on every exit that surfaces the error: a batch
// still in service its replica and version pin, a batch still queued its
// pin. Otherwise the pool stays short a replica and the next run on the
// server blocks forever waiting for it. Batch 1 is priced at NaN: with two
// workers batch 0 is still in service then; with one, batch 1 fails when
// batch 0 completes, with later batches queued behind it.
func TestLoadErrorReleasesInFlightBatches(t *testing.T) {
	lc := LoadConfig{
		Requests: 40,
		Arrival:  OpenLoop{Rate: 10, Seed: 5},
		Service:  nanAtSeq{seq: 1},
		Inputs:   testInputs(4),
	}
	for _, workers := range []int{2, 1} {
		cfg := Config{MaxBatch: 2, BatchBudget: 0.1, Workers: workers, IntraOp: 1}
		for _, exit := range []string{"RunLoad", "PublishAt", "FinishTrainLoad"} {
			s := testServer(t, cfg)
			var err error
			switch exit {
			case "RunLoad":
				_, err = s.RunLoad(lc)
			case "PublishAt":
				if err = s.BeginTrainLoad(lc); err != nil {
					t.Fatal(err)
				}
				err = s.PublishAt(50, s.Store().TakeBuffer()) // the failure is at t <= 1
			default:
				if err = s.BeginTrainLoad(lc); err != nil {
					t.Fatal(err)
				}
				_, err = s.FinishTrainLoad()
			}
			if err == nil {
				t.Fatalf("workers=%d %s: a NaN-priced batch did not fail the run", workers, exit)
			}
			if free, size := s.pool.Free(), s.pool.Size(); free != size {
				t.Fatalf("workers=%d %s: pool has %d of %d replicas free after the error; an in-flight batch kept one",
					workers, exit, free, size)
			}
			if live := s.Store().Live(); live != 1 {
				t.Fatalf("workers=%d %s: store has %d live versions after the error, want 1", workers, exit, live)
			}
			// A pin left on the current version shows once it is no longer
			// current: it would keep the retired version live.
			s.Store().Republish()
			if live := s.Store().Live(); live != 1 {
				t.Fatalf("workers=%d %s: %d live versions after a republish, want 1; a version pin leaked", workers, exit, live)
			}
			ok := lc
			ok.Service = AffineService{Base: 1}
			done := make(chan error, 1)
			go func() {
				_, err := s.RunLoad(ok)
				done <- err
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("workers=%d %s: the run after the failed one: %v", workers, exit, err)
				}
			case <-time.After(30 * time.Second):
				t.Fatalf("workers=%d %s: the run after the failed one is blocked on a replica", workers, exit)
			}
		}
	}
}

// scriptedArrival is an open-loop process with fixed inter-arrival gaps
// (the last gap repeats), for tests that need exact arrival instants.
type scriptedArrival struct{ gaps []float64 }

func (a scriptedArrival) Delay(_, step int) float64 {
	if step < len(a.gaps) {
		return a.gaps[step]
	}
	return a.gaps[len(a.gaps)-1]
}
func (a scriptedArrival) Closed() bool { return false }

// A batch whose every request blew the deadline is shed whole at service
// start: its version pin is released, the batch struct recycles, the worker
// is never marked busy, and the drain loop keeps pulling — the next queued
// batch starts in the same drain.
func TestFullyShedBatchNeverReachesWorker(t *testing.T) {
	cfg := Config{MaxBatch: 1, Workers: 1, IntraOp: 1, Admission: AdmissionConfig{Deadline: 1}}
	s := testServer(t, cfg)
	// Arrivals at t = 0, 0.5, 2.5, 12.5, 22.5; service is a flat 3 units.
	// req0 serves immediately (done t=3); req1 queues and ages 2.5 > 1 by
	// then — fully shed; req2 queues but has only aged 0.5 — it must start
	// in the very same drain pass.
	lc := LoadConfig{
		Requests: 5,
		Arrival:  scriptedArrival{gaps: []float64{0, 0.5, 2, 10}},
		Service:  AffineService{Base: 3},
		Inputs:   testInputs(4),
	}
	if err := s.beginLoad(lc); err != nil {
		t.Fatal(err)
	}
	for s.ld.shedD == 0 {
		if !s.step() {
			t.Fatal("load drained without a deadline shed")
		}
	}
	// The instant after the shed: the drain pulled past the fully-shed batch
	// and started the next queued one on the freed worker.
	if s.ld.busy != 1 || s.pool.Free() != 0 {
		t.Fatalf("after fully-shed batch: busy=%d poolFree=%d, want the NEXT batch in service (1, 0)",
			s.ld.busy, s.pool.Free())
	}
	if s.ld.served != 1 || s.ld.shedD != 1 {
		t.Fatalf("served=%d shedD=%d at the shed instant, want 1, 1", s.ld.served, s.ld.shedD)
	}
	for s.step() {
	}
	if s.ld.err != nil {
		t.Fatal(s.ld.err)
	}
	r := s.ld.report()
	if r.Served != 4 || r.ShedDeadline != 1 || r.Requests != 5 {
		t.Fatalf("served=%d shedDeadline=%d requests=%d, want 4, 1, 5", r.Served, r.ShedDeadline, r.Requests)
	}
	if r.Batches != 4 {
		t.Fatalf("Batches=%d counts the fully-shed batch, want 4 served batches only", r.Batches)
	}
	if s.ld.busy != 0 || s.pool.Free() != 1 || s.store.Live() != 1 {
		t.Fatalf("quiesced state leaked: busy=%d poolFree=%d live=%d", s.ld.busy, s.pool.Free(), s.store.Live())
	}
	// Every batch struct returned to the free stack (prealloc = Requests here).
	if got := len(s.ld.freeBatches); got != 5 {
		t.Fatalf("%d batch structs on the free stack, want 5; a batch leaked", got)
	}
}

func TestParseFlush(t *testing.T) {
	for spec, want := range map[string]FlushPolicy{"": FlushFIFO, "fifo": FlushFIFO, "edf": FlushEDF, "EDF": FlushEDF, "deadline": FlushEDF} {
		got, err := ParseFlush(spec)
		if err != nil || got != want {
			t.Errorf("ParseFlush(%q) = %v, %v; want %v", spec, got, err, want)
		}
	}
	if _, err := ParseFlush("lifo"); err == nil {
		t.Error("ParseFlush accepted an unknown policy")
	}
}

// Without version churn there is no queue-jumping flush, so EDF order equals
// FIFO order and the two policies must be bit-identical.
func TestFlushEDFMatchesFIFOWithoutChurn(t *testing.T) {
	lc := overloadLoad()
	a := AdmissionConfig{Depth: 12, Deadline: 8}
	fifo := mustLoad(t, overloadConfig(a), lc)
	edfCfg := overloadConfig(a)
	edfCfg.Flush = FlushEDF
	edf := mustLoad(t, edfCfg, lc)
	requireSameReport(t, fifo, edf, "edf vs fifo without churn")
}

// FlushEDF has no heap because it needs none: every queued batch's oldest
// request arrived no earlier than the batch ahead of it, so ring order is
// earliest-deadline order. Checked after every event of the overloaded EDF
// runs, with and without publish churn.
func TestFlushEDFQueueIsDeadlineOrdered(t *testing.T) {
	for _, publishEvery := range []int{0, 1} {
		cfg := Config{
			MaxBatch: 4, BatchBudget: 0.5, Workers: 1, IntraOp: 2, Flush: FlushEDF,
			Admission: AdmissionConfig{Depth: 14, Deadline: 9},
		}
		s := testServer(t, cfg)
		lc := LoadConfig{
			Requests:     600,
			Arrival:      OpenLoop{Rate: 1.3, Seed: 9},
			Service:      AffineService{Base: 1, PerItem: 0.5},
			Inputs:       testInputs(16),
			PublishEvery: publishEvery,
		}
		if err := s.beginLoad(lc); err != nil {
			t.Fatal(err)
		}
		deepest := 0
		for s.step() {
			q := s.ld.queue[s.ld.qhead:]
			deepest = max(deepest, len(q))
			for i := 1; i < len(q); i++ {
				if a, b := s.ld.arrTime[q[i-1].ids[0]], s.ld.arrTime[q[i].ids[0]]; b < a {
					t.Fatalf("publishEvery=%d: queued batch %d (oldest arrival %g) is due before batch %d (%g)",
						publishEvery, i, b, i-1, a)
				}
			}
		}
		if s.ld.err != nil {
			t.Fatal(s.ld.err)
		}
		if deepest < 2 {
			t.Fatalf("publishEvery=%d: queue never held two batches; the order was not exercised", publishEvery)
		}
	}
}

// Under overload with publish churn, FIFO's publish-triggered flush jumps the
// forming batch (the newest arrivals) straight onto the freed worker while
// older queued batches age toward the deadline. EDF starts the earliest-
// deadline batch first, so at the same offered load it sheds strictly fewer
// deadline-expired requests and serves at least the same throughput.
func TestFlushEDFShedsFewerUnderChurn(t *testing.T) {
	// Open-loop overload (rate 1.3 vs capacity ~1.14 at full batches) so the
	// forming batch is non-empty at most completions — every publish then
	// exercises the flush-ordering decision.
	lc := LoadConfig{
		Requests:     600,
		Arrival:      OpenLoop{Rate: 1.3, Seed: 9},
		Service:      AffineService{Base: 1, PerItem: 0.5},
		Inputs:       testInputs(16),
		PublishEvery: 1,
	}
	fifoCfg := Config{
		MaxBatch: 4, BatchBudget: 0.5, Workers: 1, IntraOp: 2,
		Admission: AdmissionConfig{Depth: 14, Deadline: 9},
	}
	edfCfg := fifoCfg
	edfCfg.Flush = FlushEDF

	fifo := mustLoad(t, fifoCfg, lc)
	edf := mustLoad(t, edfCfg, lc)
	if fifo.Requests != edf.Requests {
		t.Fatalf("unequal offered load: %d vs %d requests", fifo.Requests, edf.Requests)
	}
	if edf.ShedDeadline >= fifo.ShedDeadline {
		t.Fatalf("EDF shed %d deadline-expired requests, FIFO %d; want strictly fewer",
			edf.ShedDeadline, fifo.ShedDeadline)
	}
	if edf.Served < fifo.Served || edf.Throughput < fifo.Throughput {
		t.Fatalf("EDF served=%d tput=%g below FIFO served=%d tput=%g",
			edf.Served, edf.Throughput, fifo.Served, fifo.Throughput)
	}
	t.Logf("shed_deadline: fifo=%d edf=%d; served: fifo=%d edf=%d",
		fifo.ShedDeadline, edf.ShedDeadline, fifo.Served, edf.Served)

	// The EDF schedule is as deterministic as FIFO's: bit-identical across
	// runs and intra-op budgets.
	requireSameReport(t, edf, mustLoad(t, edfCfg, lc), "edf replay")
	edfWide := edfCfg
	edfWide.IntraOp = 5
	requireSameReport(t, edf, mustLoad(t, edfWide, lc), "edf intra-op invariance")
	if !strings.Contains(edf.String(), "shed_deadline") {
		t.Fatal("report lost the admission line")
	}
}
