package serve

import (
	"math"
	"sync"
	"testing"

	"heteroswitch/internal/frand"
	"heteroswitch/internal/israce"
	"heteroswitch/internal/nn"
	"heteroswitch/internal/tensor"
	"heteroswitch/internal/vec"
)

// testBuilder is a conv+BN model so the frozen fold is exercised on every
// version reload.
func testBuilder() func() *nn.Network {
	return func() *nn.Network {
		r := frand.New(7)
		return nn.NewNetwork(
			nn.NewConv2D(r, 1, 4, 3, 1, 1, 1),
			nn.NewBatchNorm2D(4, vec.ActIdentity),
			nn.NewReLU(),
			nn.NewGlobalAvgPool(),
			nn.NewDense(r, 4, 3),
		)
	}
}

func testWeights(t testing.TB) nn.Weights {
	t.Helper()
	return testBuilder()().Snapshot()
}

func testInputs(n int) []*tensor.Tensor {
	r := frand.New(17)
	bank := make([]*tensor.Tensor, n)
	for i := range bank {
		bank[i] = tensor.Randn(r, 0.5, 1, 8, 8)
	}
	return bank
}

func testServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	s, err := NewServer(testBuilder(), testWeights(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustLoad(t testing.TB, cfg Config, lc LoadConfig) Report {
	t.Helper()
	rep, err := testServer(t, cfg).RunLoad(lc)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func requireSameReport(t *testing.T, a, b Report, what string) {
	t.Helper()
	if a.OutputDigest != b.OutputDigest {
		t.Fatalf("%s: output digests differ: %016x vs %016x", what, a.OutputDigest, b.OutputDigest)
	}
	if !a.Hist.Equal(&b.Hist) {
		t.Fatalf("%s: latency histograms differ:\n%s\nvs\n%s", what, a.Hist.String(), b.Hist.String())
	}
	if a.P50 != b.P50 || a.P95 != b.P95 || a.P99 != b.P99 || a.MeanLatency != b.MeanLatency {
		t.Fatalf("%s: quantiles differ: %+v vs %+v", what, a, b)
	}
	if a.VirtualTime != b.VirtualTime || a.Batches != b.Batches || a.Requests != b.Requests {
		t.Fatalf("%s: schedules differ: %+v vs %+v", what, a, b)
	}
	if a.String() != b.String() {
		t.Fatalf("%s: rendered reports differ", what)
	}
}

// Two runs with the same seed and config must be bit-identical end to end:
// per-request outputs (the digest), the full latency histogram, and every
// quantile. This is the harness's reproducibility contract.
func TestLoadDeterministicAcrossRuns(t *testing.T) {
	cfg := Config{MaxBatch: 4, BatchBudget: 0.5, Workers: 2, IntraOp: 2}
	lc := LoadConfig{
		Requests:    300,
		Concurrency: 8,
		Arrival:     ClosedLoop{Think: 0.5, Seed: 9},
		Service:     AffineService{Base: 1, PerItem: 0.25},
		Inputs:      testInputs(16),
	}
	a := mustLoad(t, cfg, lc)
	b := mustLoad(t, cfg, lc)
	requireSameReport(t, a, b, "same seed")
	if a.Requests != lc.Requests {
		t.Fatalf("served %d requests, want %d", a.Requests, lc.Requests)
	}

	// Outputs are content-determined (request i always sends Inputs[i%B]), so
	// a different arrival seed must leave the digest alone but move the
	// schedule.
	lc.Arrival = ClosedLoop{Think: 0.5, Seed: 10}
	c := mustLoad(t, cfg, lc)
	if c.OutputDigest != a.OutputDigest {
		t.Fatal("arrival seed changed request outputs")
	}
	if c.VirtualTime == a.VirtualTime && c.MeanLatency == a.MeanLatency {
		t.Fatal("different arrival seed produced an identical schedule (seed not wired through)")
	}
}

// TestLoadRejectsBadConfig: a negative population or publish period is an
// error before the run starts; an arrival model that prices a request at a
// negative, NaN or infinite delay, or a service model that prices a batch at
// such a duration, is an error when the event would be scheduled; a publish
// at a non-finite instant is refused — never a panic, never a NaN in the
// report — and leaves no replica or version pinned.
func TestLoadRejectsBadConfig(t *testing.T) {
	publishAt := func(at float64) func(*Server, LoadConfig) error {
		return func(s *Server, lc LoadConfig) error {
			if err := s.BeginTrainLoad(lc); err != nil {
				t.Fatal(err)
			}
			err := s.PublishAt(at, s.Store().TakeBuffer())
			if _, ferr := s.FinishTrainLoad(); ferr != nil {
				t.Fatalf("publish at %v poisoned the run: %v", at, ferr)
			}
			return err
		}
	}
	for _, tc := range []struct {
		name string
		edit func(*LoadConfig)
		run  func(*Server, LoadConfig) error // nil: RunLoad
	}{
		{"concurrency -1", func(lc *LoadConfig) { lc.Concurrency = -1 }, nil},
		{"publish-every -2", func(lc *LoadConfig) { lc.PublishEvery = -2 }, nil},
		{"service-base -5", func(lc *LoadConfig) { lc.Service = AffineService{Base: -5, PerItem: 0.25} }, nil},
		{"service-per-item -1", func(lc *LoadConfig) { lc.Service = AffineService{Base: 1, PerItem: -1} }, nil},
		{"service NaN", func(lc *LoadConfig) { lc.Service = AffineService{Base: math.NaN()} }, nil},
		{"service +Inf", func(lc *LoadConfig) { lc.Service = AffineService{Base: math.Inf(1)} }, nil},
		{"open rate -1", func(lc *LoadConfig) { lc.Arrival = OpenLoop{Rate: -1, Seed: 3} }, nil},
		{"open rate 0", func(lc *LoadConfig) { lc.Arrival = OpenLoop{Rate: 0, Seed: 3} }, nil},
		{"closed think -1", func(lc *LoadConfig) { lc.Arrival = ClosedLoop{Think: -1, Seed: 3} }, nil},
		{"publish at NaN", func(*LoadConfig) {}, publishAt(math.NaN())},
		{"publish at +Inf", func(*LoadConfig) {}, publishAt(math.Inf(1))},
	} {
		lc := LoadConfig{Requests: 40, Concurrency: 8, Inputs: testInputs(4)}
		tc.edit(&lc)
		s := testServer(t, Config{MaxBatch: 4, BatchBudget: 0.5, Workers: 2})
		run := tc.run
		if run == nil {
			run = func(s *Server, lc LoadConfig) error { _, err := s.RunLoad(lc); return err }
		}
		if err := run(s, lc); err == nil {
			t.Fatalf("%s: no error", tc.name)
		}
		if free := s.pool.Free(); free != 2 {
			t.Fatalf("%s: pool has %d free replicas after the error, want 2", tc.name, free)
		}
		if live := s.store.Live(); live != 1 {
			t.Fatalf("%s: store has %d live versions after the error, want 1", tc.name, live)
		}
	}
}

// The frozen replicas are bit-identical at every intra-op budget and the
// schedule is virtual, so the ENTIRE report — outputs, histogram, quantiles,
// virtual time — must be invariant across -intraop. This is the serving
// analogue of the kernel layer's determinism contract.
func TestLoadBitIdenticalAcrossIntraOp(t *testing.T) {
	lc := LoadConfig{
		Requests:    200,
		Concurrency: 6,
		Arrival:     ClosedLoop{Think: 0.2, Seed: 3},
		Service:     AffineService{Base: 1, PerItem: 0.5},
		Inputs:      testInputs(16),
	}
	base := mustLoad(t, Config{MaxBatch: 4, BatchBudget: 0.3, Workers: 2, IntraOp: 1}, lc)
	for _, intraop := range []int{2, 4, 8} {
		got := mustLoad(t, Config{MaxBatch: 4, BatchBudget: 0.3, Workers: 2, IntraOp: intraop}, lc)
		requireSameReport(t, base, got, "intraop")
	}
}

// Version churn with identical values must be output-invariant: PublishEvery
// forces replica reloads, early flushes (a forming batch always executes
// under its admission version), and refcount handoff mid-run — the schedule
// may legally shift, but every request's output bits stay the same, churned
// runs stay bit-reproducible, and retired versions recycle instead of
// accumulating.
func TestLoadVersionChurnInvariant(t *testing.T) {
	cfg := Config{MaxBatch: 4, BatchBudget: 0.3, Workers: 2, IntraOp: 1}
	lc := LoadConfig{
		Requests:    240,
		Concurrency: 8,
		Arrival:     ClosedLoop{Think: 0.1, Seed: 5},
		Service:     AffineService{Base: 1, PerItem: 0.25},
		Inputs:      testInputs(16),
	}
	quiet := mustLoad(t, cfg, lc)

	lc.PublishEvery = 3
	srv := testServer(t, cfg)
	churn, err := srv.RunLoad(lc)
	if err != nil {
		t.Fatal(err)
	}
	if churn.OutputDigest != quiet.OutputDigest {
		t.Fatalf("version churn changed outputs: %016x vs %016x", churn.OutputDigest, quiet.OutputDigest)
	}
	churn2 := mustLoad(t, cfg, lc)
	requireSameReport(t, churn, churn2, "churned run reproducibility")
	if srv.Store().Version() == 0 {
		t.Fatal("PublishEvery never published")
	}
	if live := srv.Store().Live(); live > 2 {
		t.Fatalf("%d versions still resident after the run; churned versions must recycle", live)
	}
}

// Micro-batching must actually batch: saturating closed-loop clients with a
// zero think time coalesce up to MaxBatch, and MaxBatch=1 degenerates to
// one batch per request.
func TestMicroBatchCoalescing(t *testing.T) {
	lc := LoadConfig{
		Requests:    128,
		Concurrency: 8,
		Arrival:     ClosedLoop{Think: 0, Seed: 2},
		Service:     AffineService{Base: 1, PerItem: 0.25},
		Inputs:      testInputs(8),
	}
	batched := mustLoad(t, Config{MaxBatch: 4, BatchBudget: 0.5, Workers: 1, IntraOp: 1}, lc)
	if batched.MeanBatch < 2 {
		t.Fatalf("mean batch %v under saturation; micro-batcher never coalesced", batched.MeanBatch)
	}
	single := mustLoad(t, Config{MaxBatch: 1, Workers: 1, IntraOp: 1}, lc)
	if single.Batches != lc.Requests {
		t.Fatalf("MaxBatch=1 produced %d batches for %d requests", single.Batches, lc.Requests)
	}
	if batched.OutputDigest != single.OutputDigest {
		t.Fatal("batch size changed request outputs (row independence broken)")
	}
	// Amortizing Base over batches must beat serial dispatch on throughput.
	if batched.Throughput <= single.Throughput {
		t.Fatalf("batching throughput %v not above serial %v despite Base=1 amortization",
			batched.Throughput, single.Throughput)
	}
}

// Open-loop arrivals: the chained process serves exactly Requests requests
// and reproduces bit-identically, like the closed loop.
func TestLoadOpenLoop(t *testing.T) {
	cfg := Config{MaxBatch: 4, BatchBudget: 0.4, Workers: 2, IntraOp: 1}
	lc := LoadConfig{
		Requests: 200,
		Arrival:  OpenLoop{Rate: 2, Seed: 11},
		Service:  AffineService{Base: 0.5, PerItem: 0.25},
		Inputs:   testInputs(16),
	}
	a := mustLoad(t, cfg, lc)
	b := mustLoad(t, cfg, lc)
	requireSameReport(t, a, b, "open loop")
	if a.Requests != lc.Requests {
		t.Fatalf("served %d requests, want %d", a.Requests, lc.Requests)
	}
}

// The steady-state event loop — admission, batching, real frozen inference,
// completion, closed-loop rescheduling — must be allocation-free once
// beginLoad's warmup has populated every pool. This is the serving side of
// the repo's 0-alloc hot-path contract.
func TestLoadSteadyStateZeroAlloc(t *testing.T) {
	srv := testServer(t, Config{MaxBatch: 4, BatchBudget: 0.2, Workers: 2, IntraOp: 1})
	lc := LoadConfig{
		Requests:    50000,
		Concurrency: 8,
		Arrival:     ClosedLoop{Think: 0.1, Seed: 13},
		Service:     AffineService{Base: 1, PerItem: 0.25},
		Inputs:      testInputs(16),
	}
	if err := srv.beginLoad(lc); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ { // grow the event slot slab and its free stack, the heap, queue, and arenas
		if !srv.step() {
			t.Fatal("run finished during warmup; raise Requests")
		}
	}
	if israce.Enabled {
		t.Skip("sync.Pool drops items randomly under -race; alloc counts are nondeterministic")
	}
	allocs := testing.AllocsPerRun(2000, func() {
		srv.step()
	})
	if allocs != 0 {
		t.Fatalf("steady-state step allocates %v/op, want 0", allocs)
	}
}

// PredictInto — pin, borrow, forward, copy, return — allocates nothing once
// its replica holds the current version: the front door's 0-alloc contract.
func TestPredictIntoZeroAlloc(t *testing.T) {
	srv := testServer(t, Config{Workers: 1, IntraOp: 1})
	x := tensor.FromSlice(testInputs(1)[0].Data(), 1, 1, 8, 8)
	dst := make([]float32, 3)
	if _, n, err := srv.PredictInto(dst, x); err != nil || n != len(dst) {
		t.Fatalf("PredictInto wrote %d values, err %v; want %d", n, err, len(dst))
	}
	if israce.Enabled {
		t.Skip("sync.Pool drops items randomly under -race; alloc counts are nondeterministic")
	}
	if allocs := testing.AllocsPerRun(200, func() { srv.PredictInto(dst, x) }); allocs != 0 {
		t.Fatalf("PredictInto allocates %v/op, want 0", allocs)
	}
}

// PredictInto under real concurrency: many goroutines share the replica pool
// while the store republishes (same values, new versions) — outputs must
// match the serial reference bit-for-bit and the version refcounts must
// drain. Run with -race this is the front door's data-race test.
func TestPredictIntoConcurrent(t *testing.T) {
	srv := testServer(t, Config{MaxBatch: 4, Workers: 3, IntraOp: 1})
	// PredictInto takes the input as-is: shape it as a batch of one.
	inputs := testInputs(8)
	for i, x := range inputs {
		inputs[i] = tensor.FromSlice(x.Data(), 1, 1, 8, 8)
	}

	ref := nn.NewReplica(testBuilder(), 1)
	_, w := srv.Store().Acquire()
	if err := ref.Ensure(0, w); err != nil {
		t.Fatal(err)
	}
	srv.Store().Release(0)
	want := make([][]float32, len(inputs))
	for i, x := range inputs {
		want[i] = append([]float32(nil), ref.Infer(x).Data()...)
	}

	const goroutines, perG = 8, 40
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dst := make([]float32, len(want[0]))
			for i := 0; i < perG; i++ {
				k := (g + i) % len(inputs)
				if _, _, err := srv.PredictInto(dst, inputs[k]); err != nil {
					errs <- err
					return
				}
				for j := range dst {
					if dst[j] != want[k][j] {
						t.Errorf("goroutine %d: output[%d] = %v, want %v", g, j, dst[j], want[k][j])
						return
					}
				}
			}
		}(g)
	}
	for i := 0; i < 10; i++ {
		srv.Store().Republish()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if live := srv.Store().Live(); live != 1 {
		t.Fatalf("%d versions resident after all requests drained, want 1", live)
	}
}

// The serving contract under the packed matmul backend: packed-forced runs
// are bit-reproducible and intraop-invariant (packed kernels row-partition a
// shared packed panel, so budgets never change output bits), the virtual-time
// schedule is backend-invariant (service costs don't depend on output values),
// and per-request predictions agree with the serial oracle backend on argmax
// within the frozen path's tolerance tier.
func TestLoadBackendContract(t *testing.T) {
	forceBackend := func(b tensor.Backend) func() {
		prev := tensor.ActiveBackend()
		tensor.SetBackend(b)
		return func() { tensor.SetBackend(prev) }
	}

	lc := LoadConfig{
		Requests:    200,
		Concurrency: 6,
		Arrival:     ClosedLoop{Think: 0.2, Seed: 3},
		Service:     AffineService{Base: 1, PerItem: 0.5},
		Inputs:      testInputs(16),
	}

	restore := forceBackend(tensor.BackendSerial)
	serial := mustLoad(t, Config{MaxBatch: 4, BatchBudget: 0.3, Workers: 2, IntraOp: 1}, lc)
	restore()

	restore = forceBackend(tensor.BackendPacked)
	packed := mustLoad(t, Config{MaxBatch: 4, BatchBudget: 0.3, Workers: 2, IntraOp: 1}, lc)
	again := mustLoad(t, Config{MaxBatch: 4, BatchBudget: 0.3, Workers: 2, IntraOp: 1}, lc)
	requireSameReport(t, packed, again, "packed reruns")
	for _, intraop := range []int{2, 4} {
		got := mustLoad(t, Config{MaxBatch: 4, BatchBudget: 0.3, Workers: 2, IntraOp: intraop}, lc)
		requireSameReport(t, packed, got, "packed intraop")
	}
	restore()

	// The schedule (not the output bits) must be identical across backends.
	if serial.VirtualTime != packed.VirtualTime || serial.Batches != packed.Batches ||
		serial.Requests != packed.Requests || !serial.Hist.Equal(&packed.Hist) {
		t.Fatalf("schedule depends on kernel backend: serial %+v vs packed %+v", serial, packed)
	}

	// Per-request outputs: packed sits in the tolerance tier — close to the
	// serial oracle and identical on argmax for every bank input.
	inputs := testInputs(16)
	infer := func(b tensor.Backend, x *tensor.Tensor) []float32 {
		restore := forceBackend(b)
		defer restore()
		rep := nn.NewReplica(testBuilder(), 1)
		if err := rep.Ensure(0, testWeights(t)); err != nil {
			t.Fatal(err)
		}
		return append([]float32(nil), rep.Infer(tensor.FromSlice(x.Data(), 1, 1, 8, 8)).Data()...)
	}
	for i, x := range inputs {
		so := infer(tensor.BackendSerial, x)
		po := infer(tensor.BackendPacked, x)
		argmax := func(v []float32) int {
			best := 0
			for j := range v {
				if v[j] > v[best] {
					best = j
				}
			}
			return best
		}
		if argmax(so) != argmax(po) {
			t.Fatalf("input %d: packed argmax %d != serial argmax %d (%v vs %v)", i, argmax(po), argmax(so), po, so)
		}
		for j := range so {
			if d := so[j] - po[j]; d > 1e-5 || d < -1e-5 {
				t.Fatalf("input %d output[%d]: packed %v vs serial %v exceeds tolerance", i, j, po[j], so[j])
			}
		}
	}
}

// The serving contract under the forced int8 backend: quantized runs must be
// bit-reproducible (the report digest pins every output bit), invariant
// across intra-op budgets — integer accumulation is exact, so there is no
// reassociation to leak through — and the virtual-time schedule must match
// the serial oracle's. Per-request predictions agree with the serial oracle
// on argmax within the int8 tier's documented tolerance.
func TestLoadInt8BackendContract(t *testing.T) {
	forceBackend := func(b tensor.Backend) func() {
		prev := tensor.ActiveBackend()
		tensor.SetBackend(b)
		return func() { tensor.SetBackend(prev) }
	}

	lc := LoadConfig{
		Requests:    200,
		Concurrency: 6,
		Arrival:     ClosedLoop{Think: 0.2, Seed: 3},
		Service:     AffineService{Base: 1, PerItem: 0.5},
		Inputs:      testInputs(16),
	}

	restore := forceBackend(tensor.BackendSerial)
	serial := mustLoad(t, Config{MaxBatch: 4, BatchBudget: 0.3, Workers: 2, IntraOp: 1}, lc)
	restore()

	restore = forceBackend(tensor.BackendInt8)
	q := mustLoad(t, Config{MaxBatch: 4, BatchBudget: 0.3, Workers: 2, IntraOp: 1}, lc)
	again := mustLoad(t, Config{MaxBatch: 4, BatchBudget: 0.3, Workers: 2, IntraOp: 1}, lc)
	requireSameReport(t, q, again, "int8 reruns")
	for _, intraop := range []int{2, 4, 8} {
		got := mustLoad(t, Config{MaxBatch: 4, BatchBudget: 0.3, Workers: 2, IntraOp: intraop}, lc)
		requireSameReport(t, q, got, "int8 intraop")
	}
	restore()

	if serial.VirtualTime != q.VirtualTime || serial.Batches != q.Batches ||
		serial.Requests != q.Requests || !serial.Hist.Equal(&q.Hist) {
		t.Fatalf("schedule depends on kernel backend: serial %+v vs int8 %+v", serial, q)
	}

	inputs := testInputs(16)
	infer := func(b tensor.Backend, x *tensor.Tensor) []float32 {
		restore := forceBackend(b)
		defer restore()
		rep := nn.NewReplica(testBuilder(), 1)
		if err := rep.Ensure(0, testWeights(t)); err != nil {
			t.Fatal(err)
		}
		return append([]float32(nil), rep.Infer(tensor.FromSlice(x.Data(), 1, 1, 8, 8)).Data()...)
	}
	for i, x := range inputs {
		so := infer(tensor.BackendSerial, x)
		qo := infer(tensor.BackendInt8, x)
		argmax := func(v []float32) int {
			best := 0
			for j := range v {
				if v[j] > v[best] {
					best = j
				}
			}
			return best
		}
		if argmax(so) != argmax(qo) {
			t.Fatalf("input %d: int8 argmax %d != serial argmax %d (%v vs %v)", i, argmax(qo), argmax(so), qo, so)
		}
		for j := range so {
			mag := so[j]
			if mag < 0 {
				mag = -mag
			}
			if mag < 1 {
				mag = 1
			}
			if d := so[j] - qo[j]; d > tensor.Int8Tol*mag || d < -tensor.Int8Tol*mag {
				t.Fatalf("input %d output[%d]: int8 %v vs serial %v exceeds tolerance", i, j, qo[j], so[j])
			}
		}
	}
}

// ParseArrival specs round-trip and bad specs fail loudly.
func TestParseArrival(t *testing.T) {
	m, err := ParseArrival("closed:0.5", 3)
	if err != nil {
		t.Fatal(err)
	}
	if cl, ok := m.(ClosedLoop); !ok || cl.Think != 0.5 || cl.Seed != 3 || !m.Closed() {
		t.Fatalf("closed:0.5 parsed to %#v", m)
	}
	m, err = ParseArrival("open:12", 3)
	if err != nil {
		t.Fatal(err)
	}
	if ol, ok := m.(OpenLoop); !ok || ol.Rate != 12 || m.Closed() {
		t.Fatalf("open:12 parsed to %#v", m)
	}
	for _, bad := range []string{"open:0", "open:-1", "closed:-2", "uniform:1", "open:x"} {
		if _, err := ParseArrival(bad, 1); err == nil {
			t.Fatalf("spec %q parsed without error", bad)
		}
	}
}
