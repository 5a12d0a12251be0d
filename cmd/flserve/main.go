// Command flserve runs the deterministic serving load harness: it stands up
// the serving stack (refcounted version store, micro-batcher, the harness's
// frozen replica) for one model and drives it with a seeded open- or
// closed-loop arrival process in virtual time. Everything printed is a pure
// function of the flags: two invocations with the same flags produce
// byte-identical output — including per-request output digests and the
// latency histogram — at every -intraop setting, which is exactly what the
// CI smoke diffs.
//
// The train-while-serve harness — an asynchronous federated trainer publishing
// into this serving stack on one virtual clock — is heterobench -exp
// train-serve.
package main

import (
	"flag"
	"fmt"
	"os"

	"heteroswitch/internal/experiments"
	"heteroswitch/internal/frand"
	"heteroswitch/internal/models"
	"heteroswitch/internal/nn"
	"heteroswitch/internal/serve"
	"heteroswitch/internal/tensor"
)

// config is the parsed command line: the load harness's own flags beside the
// machine flags experiments.Options declares and checks.
type config struct {
	opts experiments.Options // -seed, -workers, -intraop

	model, arrival, admission, flush string
	classes, requests, bank          int
	concurrency, maxBatch, publish   int
	budget, svcBase, svcItem         float64
}

func main() {
	c := config{opts: experiments.DefaultOptions()}
	c.opts.Workers = 2
	c.opts.BindMachineFlags(flag.CommandLine)
	flag.StringVar(&c.model, "model", string(models.ArchMobileNet), "model architecture")
	flag.IntVar(&c.classes, "classes", 12, "model output classes")
	flag.IntVar(&c.requests, "requests", 2000, "total requests to serve")
	flag.IntVar(&c.concurrency, "concurrency", 16, "closed-loop client population (ignored by open-loop arrivals)")
	flag.StringVar(&c.arrival, "arrival-model", "closed:0.5", "request process: closed:THINK (exp think-time clients) or open:RATE (Poisson arrivals)")
	flag.IntVar(&c.maxBatch, "max-batch", 8, "micro-batch flush threshold")
	flag.Float64Var(&c.budget, "batch-budget", 0.25, "virtual time a partial batch waits for more requests before flushing")
	flag.Float64Var(&c.svcBase, "service-base", 1, "virtual per-dispatch service cost")
	flag.Float64Var(&c.svcItem, "service-per-item", 0.25, "virtual per-request service cost")
	flag.IntVar(&c.publish, "publish-every", 0, "republish the model (same values, new version) every N batches, exercising version-cache churn (0 = off)")
	flag.IntVar(&c.bank, "inputs", 32, "distinct request payloads in the input bank")
	flag.StringVar(&c.admission, "admission", "", "overload admission policy DEPTH,DEADLINE: shed arrivals beyond DEPTH pending requests and queued requests older than DEADLINE at service start (either 0 disables that mechanism; empty or 'off' = no admission control)")
	flag.StringVar(&c.flush, "flush", "", "queued-batch start order: fifo (default) or edf (earliest deadline first, deadline = oldest request arrival + admission DEADLINE)")
	flag.Parse()
	if err := run(c); err != nil {
		fmt.Fprintln(os.Stderr, "flserve:", err)
		os.Exit(1)
	}
}

func run(c config) error {
	if c.bank < 1 {
		return fmt.Errorf("-inputs must be at least 1, have %d", c.bank)
	}
	if err := c.opts.Apply(); err != nil {
		return err
	}
	admission, err := serve.ParseAdmission(c.admission)
	if err != nil {
		return err
	}
	flush, err := serve.ParseFlush(c.flush)
	if err != nil {
		return err
	}
	seed := c.opts.Seed
	builder, err := models.BuilderFor(models.Arch(c.model), seed, 3, c.classes)
	if err != nil {
		return err
	}
	build := func() *nn.Network { return builder() }
	weights := build().Snapshot()

	arrivalModel, err := serve.ParseArrival(c.arrival, seed^0xa11ce)
	if err != nil {
		return err
	}
	srv, err := serve.NewServer(build, weights, serve.Config{
		MaxBatch:    c.maxBatch,
		BatchBudget: c.budget,
		Workers:     c.opts.Workers,
		IntraOp:     c.opts.IntraOp,
		Admission:   admission,
		Flush:       flush,
	})
	if err != nil {
		return err
	}

	r := frand.New(seed ^ 0x1ead)
	inputs := make([]*tensor.Tensor, c.bank)
	for i := range inputs {
		inputs[i] = tensor.Randn(r, 0.5, 3, experiments.OutRes, experiments.OutRes)
	}

	fmt.Printf("flserve model=%s classes=%d input=3x%dx%d\n", c.model, c.classes, experiments.OutRes, experiments.OutRes)
	// The config line names the flush policy only when it is not the FIFO
	// default, so a non-default policy shows up in the smoke diff.
	flushNote := ""
	if flush != serve.FlushFIFO {
		flushNote = fmt.Sprintf(" flush=%s", flush)
	}
	fmt.Printf("config max_batch=%d batch_budget=%g workers=%d intraop=%d arrival=%s service=affine(%g,%g) publish_every=%d admission=%d,%g seed=%d%s\n",
		c.maxBatch, c.budget, c.opts.Workers, c.opts.IntraOp, c.arrival, c.svcBase, c.svcItem, c.publish, admission.Depth, admission.Deadline, seed, flushNote)

	report, err := srv.RunLoad(serve.LoadConfig{
		Requests:     c.requests,
		Concurrency:  c.concurrency,
		Arrival:      arrivalModel,
		Service:      serve.AffineService{Base: c.svcBase, PerItem: c.svcItem},
		Seed:         seed,
		PublishEvery: c.publish,
		Inputs:       inputs,
	})
	if err != nil {
		return err
	}
	fmt.Printf("versions published=%d resident=%d\n", srv.Store().Version(), srv.Store().Live())
	fmt.Print(report.String())
	return nil
}
