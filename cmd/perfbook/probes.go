package main

import (
	"fmt"
	"runtime"
	"time"

	"heteroswitch/internal/core"
	"heteroswitch/internal/dataset"
	"heteroswitch/internal/device"
	"heteroswitch/internal/experiments"
	"heteroswitch/internal/faults"
	"heteroswitch/internal/fl"
	"heteroswitch/internal/frand"
	"heteroswitch/internal/isp"
	"heteroswitch/internal/metrics"
	"heteroswitch/internal/models"
	"heteroswitch/internal/nn"
	"heteroswitch/internal/parallel"
	"heteroswitch/internal/scene"
	"heteroswitch/internal/serve"
	"heteroswitch/internal/simclock"
	"heteroswitch/internal/tensor"
)

// Probes time one layer at a time on one goroutine, after the workloads.
// Kernel-level numbers go through the thinnest nn wrapper (a one-layer
// network), are named by shape, and their FLOPs are computed from the
// shapes, not counted by the hardware.

// timeIters calls fn, which times one iteration itself and returns its
// duration, until budget is spent or 30 iterations are done (3 at least),
// and returns the median in ns.
func timeIters(budget time.Duration, fn func() time.Duration) float64 {
	var ns []float64
	start := time.Now()
	for len(ns) < 3 || (len(ns) < 30 && time.Since(start) < budget) {
		ns = append(ns, float64(fn()))
	}
	return median(ns)
}

// timeOp is timeIters over batches of batch calls of fn, in ns per call.
func timeOp(budget time.Duration, batch int, fn func()) float64 {
	return timeIters(budget, func() time.Duration {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		return time.Since(t0)
	}) / float64(batch)
}

// timePair is timeIters for two calls made back to back each iteration,
// so both see the same machine state; it returns every sample of each.
func timePair(budget time.Duration, limit int, a, b func()) (an, bn []float64) {
	start := time.Now()
	for len(an) < 3 || (len(an) < limit && time.Since(start) < budget) {
		t0 := time.Now()
		a()
		t1 := time.Now()
		b()
		an, bn = append(an, float64(t1.Sub(t0))), append(bn, float64(time.Since(t1)))
	}
	return an, bn
}

var probeSink float32

// calibrate measures the two machine numbers every result file carries:
// the float32 multiply-add rate of an unrolled scalar loop (the peak a
// pure-Go kernel can approach) and the copy bandwidth over 64 MiB.
func calibrate(budget time.Duration) (fmaGflops, copyGbps float64) {
	const n = 1 << 16
	ns := timeOp(budget, 1, func() {
		a0, a1, a2, a3, a4, a5, a6, a7 := float32(1), float32(1), float32(1), float32(1), float32(1), float32(1), float32(1), float32(1)
		m, c := float32(0.99999), float32(1e-6)
		for i := 0; i < n; i++ {
			a0 = a0*m + c
			a1 = a1*m + c
			a2 = a2*m + c
			a3 = a3*m + c
			a4 = a4*m + c
			a5 = a5*m + c
			a6 = a6*m + c
			a7 = a7*m + c
		}
		probeSink = a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7
	})
	fmaGflops = 2 * 8 * n / ns

	src, dst := make([]byte, 64<<20), make([]byte, 64<<20)
	copy(dst, src) // fault the pages in
	ns = timeOp(budget, 1, func() { copy(dst, src) })
	copyGbps = float64(len(src)) / ns
	return fmaGflops, copyGbps
}

func withBackend(b tensor.Backend, fn func()) {
	prev := tensor.ActiveBackend()
	tensor.SetBackend(b)
	defer tensor.SetBackend(prev)
	fn()
}

func randDataset(r *frand.RNG, n, classes int, shape ...int) *dataset.Dataset {
	ds := &dataset.Dataset{NumClasses: classes}
	for i := 0; i < n; i++ {
		ds.Samples = append(ds.Samples, dataset.Sample{X: tensor.Randn(r, 0.5, shape...), Label: i % classes})
	}
	return ds
}

func mallocsPerOp(n int, fn func()) float64 {
	_, m0 := memCounters()
	for i := 0; i < n; i++ {
		fn()
	}
	_, m1 := memCounters()
	return float64(m1-m0) / float64(n)
}

// kernelShape is one GEMM/conv shape of the tensor probes, wrapped in a
// one-layer network. flops is the forward cost of one sample.
type kernelShape struct {
	name  string // in the frozen (TOLERANCE tier) metric names
	train string // "tensor.<stem>_%s_gflops<suffix>" of the training metrics
	build func(r *frand.RNG) *nn.Network
	in    []int // one sample's input shape
	flops float64
}

func kernelShapes() []kernelShape {
	return []kernelShape{
		{"dense768x256", "tensor.dense_%s_gflops.768x256", func(r *frand.RNG) *nn.Network { return nn.NewNetwork(nn.NewDense(r, 768, 256)) },
			[]int{768}, 2 * 768 * 256},
		{"conv_stem", "tensor.conv_stem_%s_gflops", func(r *frand.RNG) *nn.Network { return nn.NewNetwork(nn.NewConv2D(r, 3, 16, 3, 2, 1, 1)) },
			[]int{3, 32, 32}, 2 * 16 * 16 * 16 * 3 * 9},
		{"conv_pw", "tensor.conv_pw_%s_gflops", func(r *frand.RNG) *nn.Network { return nn.NewNetwork(nn.NewConv2D(r, 16, 48, 1, 1, 0, 1)) },
			[]int{16, 16, 16}, 2 * 16 * 16 * 48 * 16},
		{"conv_dw", "tensor.conv_dw_%s_gflops", func(r *frand.RNG) *nn.Network { return nn.NewNetwork(nn.NewDepthwiseConv2D(r, 48, 3, 1, 1)) },
			[]int{48, 16, 16}, 2 * 16 * 16 * 48 * 9},
	}
}

func batched(b int, shape []int) []int { return append([]int{b}, shape...) }

// probes is the state the probe groups share: the run's seed, the time
// budget of one timing loop, and the metrics measured so far.
type probes struct {
	seed     uint64
	budget   time.Duration
	expScale float64 // scales the experiments.* harness sizes (1 outside -smoke)
	r        *frand.RNG
	out      map[string]float64
}

// probeGroups lists the probe groups with the workloads each belongs to:
// the ones whose end-to-end metrics its layer should move. A traced run
// measures the groups of the workloads it selected, so a run of one
// workload pays only for the layers that workload exercises.
var probeGroups = []struct {
	homes []string
	run   func(*probes) error
}{
	{[]string{"paper_table4"}, (*probes).capture},
	{[]string{"paper_table4"}, (*probes).trainKernels},
	{[]string{"paper_table4"}, (*probes).training},
	{[]string{"paper_table4"}, (*probes).table4Harness},
	{[]string{"agg_async_chaos", "serve_sim"}, (*probes).eventQueue},
	{[]string{"agg_async_chaos"}, (*probes).faultDraws},
	{[]string{"serve_wall"}, (*probes).frozenKernels},
	{[]string{"serve_wall"}, (*probes).inference},
	{[]string{"serve_wall"}, (*probes).predictOverhead},
	{[]string{"serve_wall"}, (*probes).trainServeHarness},
}

// runProbes measures the machine calibration and every probe group that
// has one of the selected workloads as a home.
func runProbes(selected map[string]bool, seed uint64, budget time.Duration, expScale float64) (map[string]float64, error) {
	p := &probes{seed: seed, budget: budget, expScale: expScale, r: frand.New(seed ^ 0x9e0be), out: map[string]float64{}}
	p.out["calib.fma_gflops"], p.out["calib.copy_gbps"] = calibrate(budget)
	for _, g := range probeGroups {
		for _, home := range g.homes {
			if selected[home] {
				if err := g.run(p); err != nil {
					return nil, err
				}
				break
			}
		}
	}
	runtime.KeepAlive(probeSink)
	return p.out, nil
}

func (p *probes) mobilenet() (models.Builder, error) {
	return models.BuilderFor(models.ArchMobileNet, p.seed, 3, 12)
}

// capture: scene, isp and device on one 64×64 image of the S9 profile.
func (p *probes) capture() error {
	gen := scene.NewImageNet12(64)
	srng := frand.New(p.seed)
	p.out["scene.render_us_per_image"] = timeOp(p.budget, 1, func() { gen.Render(4, srng) }) / 1e3
	sc := gen.Render(4, frand.New(p.seed))
	raw := isp.Mosaic(sc, isp.RGGB)
	pipe := isp.Baseline()
	var perr error
	p.out["isp.pipeline_us_per_image"] = timeOp(p.budget, 1, func() {
		if _, err := pipe.Process(raw); err != nil {
			perr = err
		}
	}) / 1e3
	s9, err := device.ByName("S9")
	if err != nil {
		return err
	}
	crng := frand.New(p.seed ^ 2)
	p.out["device.capture_us_per_image"] = timeOp(p.budget, 1, func() {
		if _, err := s9.CaptureProcessed(sc, crng); err != nil {
			perr = err
		}
	}) / 1e3
	return perr
}

const trainBatch = 10

// trainKernels: tensor's ORACLE tier — forward and backward of one-layer
// nets at the training batch size. Backward is two GEMMs (dW and dx), so
// 2× the forward FLOPs.
func (p *probes) trainKernels() error {
	var best float64
	for _, ks := range kernelShapes() {
		net := ks.build(p.r)
		net.SetIntraOp(1)
		x := tensor.Randn(p.r, 0.5, batched(trainBatch, ks.in)...)
		g := tensor.Randn(p.r, 0.5, net.Forward(x, true).Shape()...)
		net.Backward(g)
		fwd, bwd := timePair(p.budget, 30, func() { net.Forward(x, true) }, func() { net.Backward(g) })
		f := trainBatch * ks.flops / median(fwd)
		b := 2 * trainBatch * ks.flops / median(bwd)
		p.out[fmt.Sprintf(ks.train, "fwd")] = f
		p.out[fmt.Sprintf(ks.train, "bwd")] = b
		best = max(best, f, b)
	}
	p.out["tensor.train_peak_share"] = best / p.out["calib.fma_gflops"]
	return nil
}

// frozenKernels: tensor's TOLERANCE tier — frozen one-layer nets per
// backend and batch, and how often auto picks within 5 % of the best float
// backend.
func (p *probes) frozenKernels() error {
	within, shapes := 0, 0
	for _, ks := range kernelShapes()[:3] {
		for _, b := range []int{1, 16} {
			net := ks.build(p.r)
			net.SetIntraOp(1)
			x := tensor.Randn(p.r, 0.5, batched(b, ks.in)...)
			t := map[tensor.Backend]float64{}
			for _, be := range []tensor.Backend{tensor.BackendSerial, tensor.BackendPacked, tensor.BackendInt8, tensor.BackendAuto} {
				withBackend(be, func() {
					fz := net.Freeze()
					fz.Infer(x)
					t[be] = timeOp(p.budget/2, 8, func() { fz.Infer(x) }) / 1e3
				})
				if be != tensor.BackendAuto {
					p.out[fmt.Sprintf("tensor.frozen_%s_b%d_us.%s", ks.name, b, be)] = t[be]
				}
			}
			shapes++
			if t[tensor.BackendAuto] <= 1.05*min(t[tensor.BackendSerial], t[tensor.BackendPacked]) {
				within++
			}
		}
	}
	p.out["tensor.auto_within5pct_share"] = float64(within) / float64(shapes)
	return nil
}

// training: what a paper_table4 round is made of below fl — the worker
// dispatch, local training per architecture (B=10, intra-op 1) and its
// intra-op speed-up, model construction, the HeteroSwitch transformation,
// and evaluation.
func (p *probes) training() error {
	p.out["parallel.dispatch_ns"] = timeOp(p.budget, 256, func() { parallel.For(2, 2, 1, func(lo, hi int) {}) })

	cfg := fl.Config{Rounds: 1, ClientsPerRound: 1, BatchSize: trainBatch, LocalEpochs: 1, LR: 0.05, Seed: p.seed}
	train := randDataset(p.r, trainBatch, 12, 3, 32, 32)
	trainNs := func(net *nn.Network) float64 {
		trng := frand.New(p.seed ^ 3)
		fl.TrainLocal(net, train, cfg, nn.SoftmaxCrossEntropy{}, trng, nil, nil)
		return timeOp(p.budget, 1, func() { fl.TrainLocal(net, train, cfg, nn.SoftmaxCrossEntropy{}, trng, nil, nil) })
	}
	for _, a := range []struct {
		name string
		arch models.Arch
	}{
		{"mobilenet", models.ArchMobileNet}, {"shufflenet", models.ArchShuffleNet},
		{"squeezenet", models.ArchSqueezeNet}, {"simplecnn", models.ArchSimpleCNN},
	} {
		build, err := models.BuilderFor(a.arch, p.seed, 3, 12)
		if err != nil {
			return err
		}
		net := build()
		net.SetIntraOp(1)
		p.out["nn.train_us_per_sample."+a.name] = trainNs(net) / 1e3 / trainBatch
	}
	mobilenet, err := p.mobilenet()
	if err != nil {
		return err
	}
	par := mobilenet()
	par.SetIntraOp(2)
	p.out["nn.train_intraop2_speedup.mobilenet"] = p.out["nn.train_us_per_sample.mobilenet"] * 1e3 * trainBatch / trainNs(par)
	p.out["models.build_us.mobilenet"] = timeOp(p.budget, 1, func() { mobilenet() }) / 1e3

	tf := core.RandomWBGamma(0.001, 0.9)
	img := tensor.Randn(p.r, 0.25, 3, 32, 32)
	trng := frand.New(p.seed ^ 4)
	p.out["core.transform_us_per_image"] = timeOp(p.budget, 8, func() { tf(img, trng) }) / 1e3

	// Accuracy over a pooled test set the size of paper_table4's.
	test := randDataset(p.r, 216, 12, 3, 32, 32)
	evalNet := mobilenet()
	evalNet.SetIntraOp(benchIntraOp)
	metrics.Accuracy(evalNet, test, 16)
	p.out["metrics.accuracy_samples_per_s"] = 1e9 * float64(test.Len()) / timeOp(p.budget, 1, func() { metrics.Accuracy(evalNet, test, 16) })
	return nil
}

// inference: frozen whole networks under auto and under each backend, and
// what a version change costs a replica (Freeze; Ensure = reload + refold +
// repack).
func (p *probes) inference() error {
	mobilenet, err := p.mobilenet()
	if err != nil {
		return err
	}
	simplecnn, err := models.BuilderFor(models.ArchSimpleCNN, p.seed, 3, 12)
	if err != nil {
		return err
	}
	mnet := mobilenet()
	mnet.SetIntraOp(1)
	snet := simplecnn()
	snet.SetIntraOp(1)
	for _, n := range []struct {
		name string
		net  *nn.Network
	}{{"mobilenet", mnet}, {"simplecnn", snet}} {
		name, net := n.name, n.net
		for _, b := range []int{1, 16} {
			x := tensor.Randn(p.r, 0.5, b, 3, 32, 32)
			fz := net.Freeze()
			fz.Infer(x)
			p.out[fmt.Sprintf("nn.infer_us.%s_b%d", name, b)] = timeOp(p.budget, 1, func() { fz.Infer(x) }) / 1e3
		}
	}
	x1 := tensor.Randn(p.r, 0.5, 1, 3, 32, 32)
	for _, be := range []tensor.Backend{tensor.BackendSerial, tensor.BackendPacked, tensor.BackendInt8} {
		withBackend(be, func() {
			fz := mnet.Freeze()
			fz.Infer(x1)
			p.out["nn.infer_us.mobilenet_b1."+be.String()] = timeOp(p.budget, 1, func() { fz.Infer(x1) }) / 1e3
		})
	}
	fz := mnet.Freeze()
	p.out["nn.infer_allocs_per_op"] = mallocsPerOp(200, func() { fz.Infer(x1) })
	p.out["nn.freeze_us.mobilenet"] = timeOp(p.budget, 1, func() { mnet.Freeze() }) / 1e3
	rep := nn.NewReplica(func() *nn.Network { return mobilenet() }, 1)
	w := mnet.Snapshot()
	version := 0
	var perr error
	p.out["nn.ensure_us.mobilenet"] = timeOp(p.budget, 1, func() {
		version++
		if err := rep.Ensure(version, w); err != nil {
			perr = err
		}
	}) / 1e3
	return perr
}

// eventQueue: simclock — pop and reschedule on a 1 k-event heap.
func (p *probes) eventQueue() error {
	var clock simclock.Clock
	rng := frand.New(p.seed ^ 5)
	for i := 0; i < 1000; i++ {
		clock.Schedule(rng.Float64(), i)
	}
	p.out["simclock.schedule_next_ns"] = timeOp(p.budget, 1024, func() {
		ev, _ := clock.Next()
		clock.Schedule(ev.At+rng.Float64(), ev.ID)
	})
	return nil
}

// faultDraws: faults — the draws one async job makes.
func (p *probes) faultDraws() error {
	fm, err := faults.ParseSpec(chaosSpec, p.seed)
	if err != nil {
		return err
	}
	job, draws := 0, 0
	p.out["faults.draw_ns"] = timeOp(p.budget, 1024, func() {
		job++
		draws += fm.FailCount(job%1024, job) + int(fm.Corruption(job%1024, job))
		if fm.Available(job%1024, float64(job)) {
			draws++
		}
	})
	probeSink += float32(draws)
	return nil
}

// predictOverhead: what PredictInto adds over the frozen forward it wraps,
// on one goroutine, same inputs, same per-replica intra-op share.
func (p *probes) predictOverhead() error {
	mobilenet, err := p.mobilenet()
	if err != nil {
		return err
	}
	direct := mobilenet()
	direct.SetIntraOp(benchIntraOp / benchWorkers)
	srv, err := serve.NewServer(func() *nn.Network { return mobilenet() }, direct.Snapshot(), serve.Config{Workers: benchWorkers, IntraOp: benchIntraOp})
	if err != nil {
		return err
	}
	dfz := direct.Freeze()
	dst := make([]float32, 12)
	bank := make([]*tensor.Tensor, 16)
	for i := range bank {
		bank[i] = tensor.Randn(p.r, 0.5, 1, 3, 32, 32)
	}
	for _, x := range bank { // warm both replicas and the direct net
		if _, _, err := srv.PredictInto(dst, x); err != nil {
			return err
		}
		dfz.Infer(x)
	}
	var perr error
	predict := func(x *tensor.Tensor) {
		if _, _, err := srv.PredictInto(dst, x); err != nil {
			perr = err
		}
	}
	i := 0
	predictNs, inferNs := timePair(2*p.budget, 2000, func() { predict(bank[i%len(bank)]) }, func() {
		dfz.Infer(bank[i%len(bank)])
		i++
	})
	p.out["serve.predict_overhead_us"] = (percentile(predictNs, 0.5) - percentile(inferNs, 0.5)) / 1e3
	p.out["serve.predict_allocs_per_op"] = mallocsPerOp(200, func() { predict(bank[0]) })
	return perr
}

// The registry harnesses users invoke, one call each: they tie the
// workloads back to the entries of cmd/heterobench.
func (p *probes) harness(metric, name string, scale float64) error {
	opts := experiments.DefaultOptions()
	opts.Scale, opts.Seed, opts.Workers, opts.IntraOp = scale*p.expScale, p.seed, benchWorkers, benchIntraOp
	t0 := time.Now()
	if _, err := experiments.Run(name, opts); err != nil {
		return err
	}
	p.out[metric] = time.Since(t0).Seconds()
	return nil
}

func (p *probes) table4Harness() error {
	return p.harness("experiments.table4_wall_s", "table4", 0.05)
}

func (p *probes) trainServeHarness() error {
	return p.harness("experiments.train_serve_wall_s", "train-serve", 0.3)
}
