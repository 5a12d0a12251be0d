package heteroswitch

// One benchmark per table and figure of the paper's evaluation, plus
// design-choice ablations and substrate micro-benchmarks. Each experiment
// benchmark runs its full harness at a reduced scale per iteration, so
// b.N=1 (the default for these run times) measures one end-to-end
// regeneration of the artifact; cmd/heterobench -exp <id> -scale 1 runs the
// full-size configuration of any id in experiments.Names().

import (
	"fmt"
	"testing"

	"heteroswitch/internal/dataset"
	"heteroswitch/internal/device"
	"heteroswitch/internal/experiments"
	"heteroswitch/internal/fl"
	"heteroswitch/internal/frand"
	"heteroswitch/internal/isp"
	"heteroswitch/internal/nn"
	"heteroswitch/internal/scene"
	"heteroswitch/internal/serve"
	"heteroswitch/internal/simclock"
	"heteroswitch/internal/tensor"
)

// benchOpts is the per-iteration scale used by the experiment benchmarks:
// large enough to exercise every code path, small enough for go test -bench.
func benchOpts() experiments.Options {
	opts := experiments.DefaultOptions()
	opts.Scale = 0.1
	opts.Seed = 42
	return opts
}

func runExperiment(b *testing.B, name string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run(name, benchOpts()); err != nil {
			b.Fatalf("%s: %v", name, err)
		}
	}
}

// Paper artifacts -------------------------------------------------------------

func BenchmarkFig1Homogeneity(b *testing.B)   { runExperiment(b, "fig1") }
func BenchmarkTable2CrossDevice(b *testing.B) { runExperiment(b, "table2") }
func BenchmarkFig2RAW(b *testing.B)           { runExperiment(b, "fig2") }
func BenchmarkFig3ISPStages(b *testing.B)     { runExperiment(b, "fig3") }
func BenchmarkFig4Fairness(b *testing.B)      { runExperiment(b, "fig4") }
func BenchmarkFig5LODO(b *testing.B)          { runExperiment(b, "fig5") }
func BenchmarkFig7SWAD(b *testing.B)          { runExperiment(b, "fig7") }
func BenchmarkTable4Main(b *testing.B)        { runExperiment(b, "table4") }
func BenchmarkTable5Models(b *testing.B)      { runExperiment(b, "table5") }
func BenchmarkTable6Flair(b *testing.B)       { runExperiment(b, "table6") }
func BenchmarkFig8Synthetic(b *testing.B)     { runExperiment(b, "fig8") }
func BenchmarkECGHeartRate(b *testing.B)      { runExperiment(b, "ecg") }
func BenchmarkFig9Sensitivity(b *testing.B)   { runExperiment(b, "fig9") }

// Design-choice ablations ------------------------------------------------------

func BenchmarkAblationSwitches(b *testing.B) { runExperiment(b, "ablation-switch") }
func BenchmarkAblationEMAAlpha(b *testing.B) { runExperiment(b, "ablation-alpha") }
func BenchmarkAblationDegrees(b *testing.B)  { runExperiment(b, "ablation-degrees") }

// BenchmarkUnseenDeviceDG evaluates trained models on device profiles that
// never appeared in training — true out-of-distribution devices.
func BenchmarkUnseenDeviceDG(b *testing.B) { runExperiment(b, "unseen-dg") }

// Aggregation-pipeline benchmarks ---------------------------------------------

// benchServer builds a K-client federation over a ~10k-parameter dense model
// with tiny per-client datasets, so weight-snapshot traffic dominates the
// allocation profile of a round.
func benchServer(b *testing.B, k, workers int) *fl.Server {
	b.Helper()
	r := frand.New(99)
	clients := make([]*fl.Client, k)
	for i := range clients {
		ds := &dataset.Dataset{NumClasses: 2}
		for j := 0; j < 2; j++ {
			x := tensor.Randn(r, 0.5, 1, 8, 8)
			ds.Samples = append(ds.Samples, dataset.Sample{X: x, Label: j % 2})
		}
		clients[i] = fl.NewClient(i, 0, ds, 99)
	}
	builder := func() *nn.Network {
		br := frand.New(7)
		return nn.NewNetwork(nn.NewFlatten(), nn.NewDense(br, 64, 128), nn.NewReLU(), nn.NewDense(br, 128, 10))
	}
	cfg := fl.Config{
		Rounds: 1, ClientsPerRound: k, BatchSize: 2, LocalEpochs: 1,
		LR: 0.1, Seed: 1, Workers: workers,
	}
	srv, err := fl.NewServer(cfg, builder, nn.SoftmaxCrossEntropy{}, fl.FedAvg{}, clients)
	if err != nil {
		b.Fatal(err)
	}
	return srv
}

// BenchmarkServerRound measures one communication round at K∈{8,64,512}
// participants. The acceptance target: weight-buffer allocations scale with
// Workers, not K (compare B/op across K).
func BenchmarkServerRound(b *testing.B) {
	const workers = 4
	for _, k := range []int{8, 64, 512} {
		b.Run(fmt.Sprintf("K=%d/W=%d", k, workers), func(b *testing.B) {
			srv := benchServer(b, k, workers)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				srv.RunRound(i)
			}
		})
	}
}

// BenchmarkAsyncServerRound measures one asynchronous aggregation window
// (admit + Buffer staleness-discounted folds + finalize) under a straggler
// latency distribution with a depth-2 pipeline, trained on one replica and on
// two. The acceptance target mirrors the synchronous server's: steady-state
// weight allocations bounded by the version store's recycling, not by K, and
// the same at W=1 and W=2.
func BenchmarkAsyncServerRound(b *testing.B) {
	for _, bc := range []struct{ k, workers int }{{8, 1}, {8, 2}, {64, 1}, {64, 2}} {
		k := bc.k
		b.Run(fmt.Sprintf("K=%d/depth=2/W=%d", k, bc.workers), func(b *testing.B) {
			r := frand.New(99)
			clients := make([]*fl.Client, 2*k)
			for i := range clients {
				ds := &dataset.Dataset{NumClasses: 2}
				for j := 0; j < 2; j++ {
					x := tensor.Randn(r, 0.5, 1, 8, 8)
					ds.Samples = append(ds.Samples, dataset.Sample{X: x, Label: j % 2})
				}
				clients[i] = fl.NewClient(i, 0, ds, 99)
			}
			builder := func() *nn.Network {
				br := frand.New(7)
				return nn.NewNetwork(nn.NewFlatten(), nn.NewDense(br, 64, 128), nn.NewReLU(), nn.NewDense(br, 128, 10))
			}
			cfg := fl.Config{
				Rounds: 1, ClientsPerRound: k, BatchSize: 2, LocalEpochs: 1,
				LR: 0.1, Seed: 1, Workers: bc.workers,
			}
			srv, err := fl.NewAsyncServer(cfg, builder, nn.SoftmaxCrossEntropy{}, fl.FedAvg{}, clients,
				fl.AsyncConfig{
					Staleness:   fl.PolynomialStaleness{Alpha: 0.5},
					Latency:     simclock.StragglerTail{Lo: 0.5, Hi: 2, TailProb: 0.15, TailFactor: 8, Seed: 3},
					Concurrency: 2 * k,
					Buffer:      k,
				})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				srv.RunRound()
			}
		})
	}
}

// BenchmarkTrainLocal measures the per-client training hot path in isolation:
// one fl.TrainLocal call (all epochs × batches) per iteration. With the
// per-network tensor arena, steady-state allocs/op must not scale with
// batches × layers — this is the allocation-side acceptance benchmark for
// the zero-allocation training loop.
func BenchmarkTrainLocal(b *testing.B) {
	cases := []struct {
		name    string
		shape   []int
		builder func() *nn.Network
	}{
		{"MLP", []int{1, 8, 8}, func() *nn.Network {
			br := frand.New(7)
			return nn.NewNetwork(
				nn.NewFlatten(),
				nn.NewDense(br, 64, 64), nn.NewReLU(),
				nn.NewDense(br, 64, 4),
			)
		}},
		{"ConvNet", []int{1, 8, 8}, func() *nn.Network {
			br := frand.New(7)
			return nn.NewNetwork(
				nn.NewConv2D(br, 1, 4, 3, 1, 1, 1),
				nn.NewBatchNorm2D(4),
				nn.NewReLU(),
				nn.NewMaxPool2D(2, 2),
				nn.NewFlatten(),
				nn.NewDense(br, 4*4*4, 4),
			)
		}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			r := frand.New(17)
			ds := &dataset.Dataset{NumClasses: 4}
			for i := 0; i < 64; i++ {
				ds.Samples = append(ds.Samples, dataset.Sample{
					X: tensor.Randn(r, 0.5, tc.shape...), Label: i % 4,
				})
			}
			net := tc.builder()
			cfg := fl.Config{
				Rounds: 1, ClientsPerRound: 1, BatchSize: 8, LocalEpochs: 2,
				LR: 0.05, Seed: 1,
			}
			rng := frand.New(3)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fl.TrainLocal(net, ds, cfg, nn.SoftmaxCrossEntropy{}, rng, nil, nil)
			}
		})
	}
}

// BenchmarkEval measures one eval-batch forward pass on the fused inference
// fast path (Network.Freeze: BN folded into conv/dense, activations fused as
// kernel epilogues, no backward caches) against the reference
// layer-by-layer eval forward, across intra-op budgets. The budget reaches
// only the fused path; the reference forward runs the serial training
// kernels, so compare the two at intraop 1, where the gap is pure fusion +
// skipped caches. Acceptance: the fused path is no slower there, with 0
// steady-state allocs/op (arena outputs, pooled dispatch, per-chunk im2col
// scratch). On a 1-core runner the budgets converge; the CI bench-smoke
// artifact records whatever the runner gives.
func BenchmarkEval(b *testing.B) {
	cases := []struct {
		name    string
		shape   []int
		builder func() *nn.Network
	}{
		{"MLP", []int{3, 16, 16}, func() *nn.Network {
			br := frand.New(7)
			return nn.NewNetwork(
				nn.NewFlatten(),
				nn.NewDense(br, 3*16*16, 256), nn.NewReLU(),
				nn.NewDense(br, 256, 128), nn.NewReLU(),
				nn.NewDense(br, 128, 12),
			)
		}},
		{"ConvNet", []int{3, 32, 32}, func() *nn.Network {
			// MobileNetV3-shaped (the paper's §6 default): 3×3 stem, 1×1
			// expand, 3×3 depthwise, 1×1 project — the mix the fast path's
			// pointwise/depthwise kernels target.
			br := frand.New(7)
			return nn.NewNetwork(
				nn.NewConv2D(br, 3, 16, 3, 2, 1, 1),
				nn.NewBatchNorm2D(16),
				nn.NewHardSwish(),
				nn.NewConv2D(br, 16, 48, 1, 1, 0, 1),
				nn.NewBatchNorm2D(48),
				nn.NewHardSwish(),
				nn.NewDepthwiseConv2D(br, 48, 3, 1, 1),
				nn.NewBatchNorm2D(48),
				nn.NewHardSwish(),
				nn.NewConv2D(br, 48, 32, 1, 1, 0, 1),
				nn.NewBatchNorm2D(32),
				nn.NewGlobalAvgPool(),
				nn.NewDense(br, 32, 12),
			)
		}},
	}
	for _, tc := range cases {
		// The fused path runs under every kernel backend (the packed-vs-serial
		// delta is the packed backend's acceptance number, the int8-vs-packed
		// delta the quantized tier's); the reference layer-by-layer forward
		// only ever uses the oracle entry points, so it gets a single serial
		// arm.
		for _, arm := range []struct {
			mode    string
			backend tensor.Backend
		}{
			{"fused-serial", tensor.BackendSerial},
			{"fused-packed", tensor.BackendPacked},
			{"fused-int8", tensor.BackendInt8},
			{"reference", tensor.BackendSerial},
		} {
			for _, par := range []int{1, 2, 4, 8} {
				b.Run(fmt.Sprintf("%s/%s/intraop=%d", tc.name, arm.mode, par), func(b *testing.B) {
					prev := tensor.ActiveBackend()
					tensor.SetBackend(arm.backend)
					defer tensor.SetBackend(prev)
					r := frand.New(17)
					x := tensor.Randn(r, 0.5, append([]int{16}, tc.shape...)...)
					net := tc.builder()
					net.SetIntraOp(par)
					fz := net.Freeze()
					// Warm the arena, dispatch pools, and im2col scratch.
					fz.Infer(x)
					net.Forward(x, false)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if arm.mode == "reference" {
							benchEvalSink = net.Forward(x, false)
						} else {
							benchEvalSink = fz.Infer(x)
						}
					}
				})
			}
		}
	}
}

var benchEvalSink *tensor.Tensor

// gradPathLoss materializes dL/d(pred) even when the eval loop asks for the
// value only — the "before" arm of BenchmarkEvalLoss.
type gradPathLoss struct{ nn.Loss }

func (g gradPathLoss) Eval(_, pred *tensor.Tensor, target nn.Target) float64 {
	return g.Loss.Eval(tensor.New(pred.Shape()...), pred, target)
}

// BenchmarkEvalLoss measures fl.EvalLoss — the pure-inference loss sweep —
// on the value-only path (nil grad, what EvalLoss passes) against the
// gradient path (dL/d(pred) materialized per batch). Acceptance: value-only
// is no slower and allocates no gradient tensors; the loss values are
// bit-identical because both paths are one loop.
func BenchmarkEvalLoss(b *testing.B) {
	r := frand.New(17)
	ds := &dataset.Dataset{NumClasses: 12}
	for i := 0; i < 256; i++ {
		ds.Samples = append(ds.Samples, dataset.Sample{
			X: tensor.Randn(r, 0.5, 3, 16, 16), Label: i % 12,
		})
	}
	br := frand.New(7)
	net := nn.NewNetwork(
		nn.NewFlatten(),
		nn.NewDense(br, 3*16*16, 256), nn.NewReLU(),
		nn.NewDense(br, 256, 12),
	)
	for _, mode := range []struct {
		name string
		loss nn.Loss
	}{
		{"value-only", nn.SoftmaxCrossEntropy{}},
		{"grad-path", gradPathLoss{nn.SoftmaxCrossEntropy{}}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			fl.EvalLoss(net, mode.loss, ds, 32) // warm scratch + arena
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchEvalLossSink = fl.EvalLoss(net, mode.loss, ds, 32)
			}
		})
	}
}

var benchEvalLossSink float64

// BenchmarkServe measures the serving front end end-to-end: one full
// closed-loop load run (seeded arrivals, micro-batching, frozen per-worker
// replicas) per iteration, swept over the micro-batcher's flush threshold.
// Custom metrics report the harness's virtual-time results — vthroughput
// (requests per virtual time unit) and vp99 (virtual p99 latency) — so the
// CI bench artifact records the batching trade-off curve: how throughput and
// tail latency move as MaxBatch grows. Wall-clock ns/op tracks the
// real inference cost of the same run. The per-request outputs are
// bit-identical across batch sizes and intra-op budgets (asserted by the
// serve package tests); this benchmark records the schedule consequences.
func BenchmarkServe(b *testing.B) {
	build := func() *nn.Network {
		br := frand.New(7)
		return nn.NewNetwork(
			nn.NewConv2D(br, 1, 4, 3, 1, 1, 1),
			nn.NewBatchNorm2D(4),
			nn.NewReLU(),
			nn.NewGlobalAvgPool(),
			nn.NewDense(br, 4, 3),
		)
	}
	weights := build().Snapshot()
	r := frand.New(17)
	inputs := make([]*tensor.Tensor, 16)
	for i := range inputs {
		inputs[i] = tensor.Randn(r, 0.5, 1, 8, 8)
	}
	// The virtual-time metrics (vthroughput, vp99) are backend-invariant by
	// the schedule contract; the wall-clock ns/op deltas between the backend
	// arms are the serving-path packed and int8 speedups.
	for _, be := range []tensor.Backend{tensor.BackendSerial, tensor.BackendPacked, tensor.BackendInt8} {
		for _, maxBatch := range []int{1, 2, 4, 8, 16} {
			b.Run(fmt.Sprintf("backend=%s/maxbatch=%d", be, maxBatch), func(b *testing.B) {
				prev := tensor.ActiveBackend()
				tensor.SetBackend(be)
				defer tensor.SetBackend(prev)
				srv, err := serve.NewServer(build, weights, serve.Config{
					MaxBatch:    maxBatch,
					BatchBudget: 0.5,
					Workers:     2,
					IntraOp:     2,
				})
				if err != nil {
					b.Fatal(err)
				}
				load := serve.LoadConfig{
					Requests:    512,
					Concurrency: 24,
					Arrival:     serve.ClosedLoop{Think: 0.5, Seed: 11},
					Service:     serve.AffineService{Base: 1, PerItem: 0.25},
					Seed:        42,
					Inputs:      inputs,
				}
				if _, err := srv.RunLoad(load); err != nil { // warm replicas + arenas
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				var last serve.Report
				for i := 0; i < b.N; i++ {
					rep, err := srv.RunLoad(load)
					if err != nil {
						b.Fatal(err)
					}
					last = rep
				}
				b.ReportMetric(last.Throughput, "vthroughput")
				b.ReportMetric(last.P99, "vp99")
				b.ReportMetric(last.MeanBatch, "meanbatch")
			})
		}
	}
}

// Substrate micro-benchmarks ---------------------------------------------------

// BenchmarkDeviceCapture measures one full sensor+ISP capture of a 64x64
// scene on the S9 profile — the per-image cost of workload generation.
func BenchmarkDeviceCapture(b *testing.B) {
	gen := scene.NewImageNet12(64)
	sc := gen.Render(4, frand.New(1))
	p, err := device.ByName("S9")
	if err != nil {
		b.Fatal(err)
	}
	rng := frand.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.CaptureProcessed(sc, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkISPPipeline measures the six-stage baseline pipeline alone.
func BenchmarkISPPipeline(b *testing.B) {
	gen := scene.NewImageNet12(64)
	sc := gen.Render(4, frand.New(1))
	raw := isp.Mosaic(sc, isp.RGGB)
	pipe := isp.Baseline()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipe.Process(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkloadBuild measures building the full nine-device federation
// at one scene per class.
func BenchmarkWorkloadBuild(b *testing.B) {
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.BuildDeviceData(opts, 1, 1, dataset.ModeProcessed); err != nil {
			b.Fatal(err)
		}
	}
}
