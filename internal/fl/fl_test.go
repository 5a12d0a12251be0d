package fl

import (
	"math"
	"strings"
	"testing"

	"heteroswitch/internal/dataset"
	"heteroswitch/internal/frand"
	"heteroswitch/internal/nn"
	"heteroswitch/internal/tensor"
)

// fixture: a linearly separable 2-class problem over two "devices" whose
// images have different brightness offsets (a toy system-induced shift).
func fixtureData(n int, seed uint64) map[int]*dataset.Dataset {
	r := frand.New(seed)
	perDevice := map[int]*dataset.Dataset{}
	for dev := 0; dev < 2; dev++ {
		ds := &dataset.Dataset{NumClasses: 2}
		offset := float32(dev) * 0.1
		for i := 0; i < n; i++ {
			label := i % 2
			x := tensor.New(1, 4, 4)
			base := float32(0.25) + offset
			if label == 1 {
				base = 0.75 - offset
			}
			for j := range x.Data() {
				x.Data()[j] = base + float32(r.NormFloat64()*0.05)
			}
			ds.Samples = append(ds.Samples, dataset.Sample{X: x, Label: label, Device: dev})
		}
		perDevice[dev] = ds
	}
	return perDevice
}

func fixtureBuilder(seed uint64) Builder {
	return func() *nn.Network {
		r := frand.New(seed)
		return nn.NewNetwork(nn.NewFlatten(), nn.NewDense(r, 16, 2))
	}
}

// l2NormSq is the squared L2 norm, accumulated in float64.
func l2NormSq(t *tensor.Tensor) float64 {
	var s float64
	for _, v := range t.Data() {
		s += float64(v) * float64(v)
	}
	return s
}

func fixtureServer(t testing.TB, strat Strategy, workers int) *Server {
	t.Helper()
	perDevice := fixtureData(24, 3)
	clients, err := BuildPopulation(perDevice, []int{3, 3}, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Rounds: 20, ClientsPerRound: 4, BatchSize: 4, LocalEpochs: 1,
		LR: 0.2, Seed: 11, Workers: workers,
	}
	srv, err := NewServer(cfg, fixtureBuilder(5), nn.SoftmaxCrossEntropy{}, strat, clients)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func globalAccuracy(srv *Server, perDevice map[int]*dataset.Dataset) float64 {
	net := srv.GlobalNet()
	correct, total := 0, 0
	bs := dataset.GetBatchScratch()
	defer dataset.PutBatchScratch(bs)
	for _, ds := range perDevice {
		for lo := 0; lo < ds.Len(); lo += 8 {
			hi := lo + 8
			if hi > ds.Len() {
				hi = ds.Len()
			}
			x, _, labels := bs.Next(ds, lo, hi)
			pred := net.Forward(x, false).ArgMaxRows()
			for i, p := range pred {
				if p == labels[i] {
					correct++
				}
			}
			total += hi - lo
		}
	}
	return float64(correct) / float64(total)
}

func TestConfigValidate(t *testing.T) {
	good := Default()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.LR = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero LR should fail")
	}
	bad = good
	bad.BatchSize = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero batch should fail")
	}
}

func TestDeviceCounts(t *testing.T) {
	counts := DeviceCounts([]float64{0.38, 0.27, 0.12, 0.08, 0.05, 0.04, 0.03, 0.02, 0.01}, 100)
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 100 {
		t.Fatalf("counts sum to %d", total)
	}
	if counts[0] != 38 || counts[1] != 27 {
		t.Fatalf("dominant shares misallocated: %v", counts)
	}
	// Small n: every count still >= 0 and sums right.
	counts = DeviceCounts([]float64{0.5, 0.3, 0.2}, 7)
	total = 0
	for _, c := range counts {
		if c < 0 {
			t.Fatal("negative count")
		}
		total += c
	}
	if total != 7 {
		t.Fatalf("sum %d != 7", total)
	}
}

func TestBuildPopulation(t *testing.T) {
	perDevice := fixtureData(20, 1)
	clients, err := BuildPopulation(perDevice, []int{4, 2}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(clients) != 6 {
		t.Fatalf("population %d", len(clients))
	}
	perDev := map[int]int{}
	samples := 0
	for i, c := range clients {
		if c.ID != i {
			t.Fatalf("client IDs not sequential: %d at %d", c.ID, i)
		}
		perDev[c.Device]++
		samples += c.Data.Len()
		if c.Data.Len() == 0 {
			t.Fatal("client with empty shard")
		}
	}
	if perDev[0] != 4 || perDev[1] != 2 {
		t.Fatalf("device allocation %v", perDev)
	}
	if samples != 40 {
		t.Fatalf("samples across shards %d, want 40", samples)
	}
}

func TestBuildPopulationErrors(t *testing.T) {
	if _, err := BuildPopulation(map[int]*dataset.Dataset{}, []int{1}, 1); err == nil {
		t.Fatal("missing device data should error")
	}
}

// A device with more clients than samples would leave clients empty; the
// error names the device, its sample count and its client count. Exactly as
// many clients as samples is fine: one sample each.
func TestBuildPopulationRejectsMoreClientsThanSamples(t *testing.T) {
	perDevice := fixtureData(3, 1)
	_, err := BuildPopulation(perDevice, []int{3, 4}, 5)
	if err == nil {
		t.Fatal("4 clients for 3 samples should error")
	}
	if want := "device 1 has 3 samples for 4 clients"; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not say %q", err, want)
	}
	clients, err := BuildPopulation(perDevice, []int{3, 3}, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range clients {
		if c.Data.Len() != 1 {
			t.Fatalf("client %d holds %d samples, want 1", c.ID, c.Data.Len())
		}
	}
}

func TestFedAvgAggregateWeighted(t *testing.T) {
	mk := func(v float32) nn.Weights {
		return nn.Weights{Params: []*tensor.Tensor{tensor.Full(v, 2)}}
	}
	results := []ClientResult{
		{NumSamples: 1, Weights: mk(0)},
		{NumSamples: 3, Weights: mk(4)},
	}
	out := streamAggregate(FedAvg{}, mk(99), results, 1, Default())
	if math.Abs(float64(out.Params[0].At(0))-3) > 1e-6 {
		t.Fatalf("weighted average = %v, want 3", out.Params[0].At(0))
	}
}

func TestFedAvgLearns(t *testing.T) {
	perDevice := fixtureData(24, 3)
	srv := fixtureServer(t, FedAvg{}, 1)
	srv.Run(nil)
	if acc := globalAccuracy(srv, perDevice); acc < 0.9 {
		t.Fatalf("FedAvg accuracy %v on separable toy problem", acc)
	}
}

func TestParallelWorkersDeterministic(t *testing.T) {
	a := fixtureServer(t, FedAvg{}, 1)
	b := fixtureServer(t, FedAvg{}, 4)
	a.Run(nil)
	b.Run(nil)
	for i := range a.Global.Params {
		if !a.Global.Params[i].AllClose(b.Global.Params[i], 1e-6) {
			t.Fatalf("param %d differs between 1 and 4 workers", i)
		}
	}
}

func TestRunsAreReproducible(t *testing.T) {
	a := fixtureServer(t, FedAvg{}, 2)
	b := fixtureServer(t, FedAvg{}, 2)
	a.Run(nil)
	b.Run(nil)
	for i := range a.Global.Params {
		if !a.Global.Params[i].AllClose(b.Global.Params[i], 0) {
			t.Fatalf("identical configs diverged at param %d", i)
		}
	}
}

func TestFedProxStaysCloserToGlobal(t *testing.T) {
	// With huge μ the local update barely moves from the global weights.
	perDevice := fixtureData(24, 3)
	clients, _ := BuildPopulation(perDevice, []int{1, 1}, 7)
	cfg := Config{Rounds: 1, ClientsPerRound: 1, BatchSize: 4, LocalEpochs: 3, LR: 0.2, Seed: 1, Workers: 1}
	builder := fixtureBuilder(5)

	run := func(strat Strategy) float64 {
		srv, err := NewServer(cfg, builder, nn.SoftmaxCrossEntropy{}, strat, clients)
		if err != nil {
			t.Fatal(err)
		}
		before := srv.Global.Clone()
		srv.Run(nil)
		return before.L2DistSq(srv.Global)
	}
	freeDist := run(FedAvg{})
	proxDist := run(&FedProx{Mu: 2})
	if proxDist >= freeDist {
		t.Fatalf("FedProx(μ=2) moved further (%v) than FedAvg (%v)", proxDist, freeDist)
	}
}

func TestQFedAvgAggregateFinite(t *testing.T) {
	srv := fixtureServer(t, &QFedAvg{Q: 1e-1}, 1)
	// q-FFL's normalized step is far more conservative than full averaging;
	// give it extra rounds to converge on the toy problem.
	srv.Cfg.Rounds = 25
	srv.Run(nil)
	for _, p := range srv.Global.Params {
		if p.HasNaN() {
			t.Fatal("q-FedAvg produced NaN weights")
		}
	}
	perDevice := fixtureData(24, 3)
	if acc := globalAccuracy(srv, perDevice); acc < 0.8 {
		t.Fatalf("q-FedAvg accuracy %v", acc)
	}
}

func TestScaffoldLearnsAndMaintainsVariates(t *testing.T) {
	strat := &Scaffold{TotalClients: 6}
	perDevice := fixtureData(24, 3)
	srv := fixtureServer(t, strat, 1)
	// SCAFFOLD needs a few extra rounds for the control variates to warm up
	// before they help rather than perturb.
	srv.Cfg.Rounds = 30
	srv.Run(nil)
	if acc := globalAccuracy(srv, perDevice); acc < 0.85 {
		t.Fatalf("Scaffold accuracy %v", acc)
	}
	if strat.c.Params == nil {
		t.Fatal("server control variate never initialized")
	}
	if len(strat.clients) == 0 {
		t.Fatal("client control variates never stored")
	}
	var norm float64
	for _, p := range strat.c.Params {
		norm += l2NormSq(p)
	}
	if math.IsNaN(norm) || math.IsInf(norm, 0) {
		t.Fatal("control variate diverged")
	}
}

func TestSampleClientsDistinct(t *testing.T) {
	srv := fixtureServer(t, FedAvg{}, 1)
	for round := 0; round < 5; round++ {
		sampled := srv.draw(nil)
		if len(sampled) != srv.Cfg.ClientsPerRound {
			t.Fatalf("sampled %d clients", len(sampled))
		}
		seen := map[int]bool{}
		for _, c := range sampled {
			if seen[c.ID] {
				t.Fatal("client sampled twice in one round")
			}
			seen[c.ID] = true
		}
	}
}

func TestRoundStatsPopulated(t *testing.T) {
	srv := fixtureServer(t, FedAvg{}, 1)
	var got []RoundStats
	srv.Run(func(s RoundStats) { got = append(got, s) })
	if len(got) != srv.Cfg.Rounds {
		t.Fatalf("callbacks %d, want %d", len(got), srv.Cfg.Rounds)
	}
	for i, s := range got {
		if s.Round != i || len(s.Sampled) != srv.Cfg.ClientsPerRound {
			t.Fatalf("stats %d malformed: %+v", i, s)
		}
		if s.MeanLoss <= 0 {
			t.Fatalf("round %d mean loss %v", i, s.MeanLoss)
		}
	}
	// Losses should broadly decrease on this easy problem.
	if got[len(got)-1].MeanLoss >= got[0].MeanLoss {
		t.Fatalf("loss did not decrease: %v -> %v", got[0].MeanLoss, got[len(got)-1].MeanLoss)
	}
}

func TestNewServerValidation(t *testing.T) {
	perDevice := fixtureData(8, 1)
	clients, _ := BuildPopulation(perDevice, []int{1, 1}, 1)
	cfg := Default()
	cfg.ClientsPerRound = 50 // more than population
	if _, err := NewServer(cfg, fixtureBuilder(1), nn.SoftmaxCrossEntropy{}, FedAvg{}, clients); err == nil {
		t.Fatal("K > N should fail")
	}
	if _, err := NewServer(Default(), fixtureBuilder(1), nn.SoftmaxCrossEntropy{}, FedAvg{}, nil); err == nil {
		t.Fatal("empty population should fail")
	}
}

func TestEvalLossMatchesMetricsSemantics(t *testing.T) {
	perDevice := fixtureData(10, 2)
	net := fixtureBuilder(9)()
	l := EvalLoss(net, nn.SoftmaxCrossEntropy{}, perDevice[0], 4)
	if l <= 0 || math.IsNaN(l) {
		t.Fatalf("EvalLoss = %v", l)
	}
	if EvalLoss(net, nn.SoftmaxCrossEntropy{}, &dataset.Dataset{NumClasses: 2}, 4) != 0 {
		t.Fatal("empty dataset should yield 0")
	}
}

func TestTrainLocalHooksFire(t *testing.T) {
	perDevice := fixtureData(12, 4)
	net := fixtureBuilder(9)()
	cfg := Config{Rounds: 1, ClientsPerRound: 1, BatchSize: 4, LocalEpochs: 2, LR: 0.1, Workers: 1}
	stepCalls, batchCalls := 0, 0
	lastIdx := -1
	TrainLocal(net, perDevice[0], cfg, nn.SoftmaxCrossEntropy{}, frand.New(1),
		func(ps []*nn.Param) { stepCalls++ },
		func(n *nn.Network, idx int) {
			batchCalls++
			if idx != lastIdx+1 {
				t.Fatalf("batch index jumped: %d after %d", idx, lastIdx)
			}
			lastIdx = idx
		})
	// 12 samples, batch 4 → 3 batches/epoch × 2 epochs = 6.
	if stepCalls != 6 || batchCalls != 6 {
		t.Fatalf("hooks fired %d/%d times, want 6/6", stepCalls, batchCalls)
	}
}

// TestIntraOpShare pins the core-budget token arithmetic: equal shares of
// the total, floored at 1, with the full budget for a single worker.
func TestIntraOpShare(t *testing.T) {
	cases := []struct {
		total, workers, want int
	}{
		{8, 2, 4},
		{8, 1, 8},
		{8, 3, 2},
		{2, 4, 1},
		{1, 1, 1},
		{1, 8, 1},
	}
	for _, c := range cases {
		if got := intraOpShare(Config{IntraOp: c.total}, c.workers); got != c.want {
			t.Fatalf("intraOpShare(total=%d, workers=%d)=%d, want %d", c.total, c.workers, got, c.want)
		}
	}
	// Auto budget is GOMAXPROCS-derived and must be at least 1.
	if got := intraOpShare(Config{}, 1); got < 1 {
		t.Fatalf("auto share %d < 1", got)
	}
}
