// Package experiments contains one harness per table and figure of the
// paper's evaluation. Each harness builds its workload from the simulated
// device population, runs the training protocol, and returns a result whose
// String() renders the same rows/series the paper reports.
//
// Every harness accepts Options with a Scale knob: Scale=1 is the intended
// reproduction size (minutes on a laptop CPU), small scales (0.1-0.3) run in
// seconds and preserve trends, and the unit tests use the small end.
package experiments

import (
	"flag"
	"fmt"
	"math"
	"runtime"
	"strings"

	"heteroswitch/internal/dataset"
	"heteroswitch/internal/device"
	"heteroswitch/internal/faults"
	"heteroswitch/internal/fl"
	"heteroswitch/internal/frand"
	"heteroswitch/internal/metrics"
	"heteroswitch/internal/models"
	"heteroswitch/internal/nn"
	"heteroswitch/internal/parallel"
	"heteroswitch/internal/scene"
	"heteroswitch/internal/simclock"
)

// OutRes is the side of every captured image and the input resolution of
// every model: the bundled architectures take 3×32×32 and nothing else.
const OutRes = 32

// Options control workload sizing shared by all harnesses.
type Options struct {
	// Scale multiplies sample counts, epochs, and rounds. 1.0 is the
	// full-size configuration of every harness in the registry.
	Scale float64
	// Seed drives all randomness.
	Seed uint64
	// Workers bounds parallel training — clients in the FL harnesses, whole
	// models in the centralized ones (Table 2, Fig 2, Fig 7) — and parallel
	// device capture. It is the machine's one training-parallelism knob.
	Workers int
	// IntraOp is the total parallelism budget of the frozen (evaluation and
	// serving) forward (fl.Config.IntraOp): cores it may occupy across all
	// workers combined. It splits a batch's conv iterations (samples ×
	// groups); a batch-1 request runs on one core. 0 = auto (GOMAXPROCS,
	// split evenly across Workers); 1 = serial. Training always runs the
	// serial kernels, and results are bit-identical at every setting.
	IntraOp int
	// Async selects asynchronous staleness-aware aggregation for the
	// FL-driving harnesses.
	Async AsyncOptions
	// Faults is a faults.ParseSpec chaos spec ("crash:P", "flaky:P,R",
	// "corrupt:P,MODE", "churn:PERIOD,ON", "+"-combined) injected into every
	// FL harness; "" or "none" runs fault-free. Crash/flaky/churn models need
	// the async engine (Options.Async plus a timeout for crash/flaky).
	Faults string
	// MaxDeltaNorm is the update-validation gate (fl.Config.MaxDeltaNorm):
	// client deltas with non-finite values or L2 norm beyond it are rejected
	// before aggregation. 0 keeps the gate off unless Faults is set, in
	// which case it defaults to +Inf (reject non-finite only).
	MaxDeltaNorm float64
}

// AsyncOptions configure the asynchronous aggregation path (fl.AsyncServer on
// a simclock virtual-time simulation). The zero value keeps every harness
// synchronous.
type AsyncOptions struct {
	// Enabled switches RunFL/RunFLWithLoss to the asynchronous server, for
	// every strategy.
	Enabled bool
	// StalenessAlpha is the polynomial discount exponent 1/(1+s)^α; 0
	// disables discounting.
	StalenessAlpha float64
	// LatencyModel is a simclock.ParseModel spec (zero, const:D,
	// uniform:LO,HI, straggler:LO,HI,P,FACTOR); "" means zero latency.
	LatencyModel string
	// Depth is the in-flight pipeline depth as a multiple of each harness's
	// K: aggregation windows fold K results while Depth×K jobs stay in
	// flight. 0 or 1 means no window overlap — and therefore no staleness.
	Depth int
	// Timeout, RetryBackoff and MaxAttempts configure per-job virtual-time
	// timeouts with deterministic reissue (fl.AsyncConfig fields of the same
	// names); Timeout 0 disables timeouts, the pre-fault behavior.
	Timeout      float64
	RetryBackoff float64
	MaxAttempts  int
	// MaxStaleness drops results staler than this many windows instead of
	// folding them (fl.AsyncConfig.MaxStaleness). 0 folds everything.
	MaxStaleness int
}

// Config resolves the options into an fl.AsyncConfig for a harness whose
// round size is k, seeding the latency model from seed.
func (a AsyncOptions) Config(k int, seed uint64) (fl.AsyncConfig, error) {
	lat, err := simclock.ParseModel(a.LatencyModel, seed)
	if err != nil {
		return fl.AsyncConfig{}, err
	}
	depth := max(a.Depth, 1)
	return fl.AsyncConfig{
		Staleness:    fl.PolynomialStaleness{Alpha: a.StalenessAlpha},
		Latency:      lat,
		Concurrency:  depth * k,
		Buffer:       k,
		Timeout:      a.Timeout,
		RetryBackoff: a.RetryBackoff,
		MaxAttempts:  a.MaxAttempts,
		MaxStaleness: a.MaxStaleness,
	}, nil
}

// BindMachineFlags declares the three flags every binary needs — -seed,
// -workers, -intraop — on fs, bound straight to o's fields.
// Each default is the field's value at bind time, so a binary states its own
// default by setting the field first.
func (o *Options) BindMachineFlags(fs *flag.FlagSet) {
	fs.Uint64Var(&o.Seed, "seed", o.Seed, "random seed; everything printed is a pure function of it and the other flags")
	fs.IntVar(&o.Workers, "workers", o.Workers, "parallel workers: client or model trainers, device captures, serving batch executors (0 or 1 = serial; results are bit-identical at every setting)")
	fs.IntVar(&o.IntraOp, "intraop", o.IntraOp, "total core budget of the frozen evaluation and serving forward, split across workers; it splits a batch's conv iterations, so a batch-1 request runs on one core (0 = GOMAXPROCS, 1 = serial; training is unaffected; results are bit-identical at every setting)")
}

// BindFlags declares every flag more than one binary needs, on fs, bound
// straight to o's fields: the machine flags (BindMachineFlags) plus the
// aggregation-engine and fault-injection flags -async, -staleness-alpha,
// -latency-model, -async-depth, -faults, -max-delta-norm, -fault-timeout,
// -fault-backoff, -fault-attempts, -max-staleness. -latency-model defaults to
// the field's value at bind time, like the machine flags.
func (o *Options) BindFlags(fs *flag.FlagSet) {
	o.BindMachineFlags(fs)
	a := &o.Async
	fs.BoolVar(&a.Enabled, "async", false, "asynchronous staleness-aware aggregation on a deterministic virtual-time simulation (no round waits for its stragglers)")
	fs.Float64Var(&a.StalenessAlpha, "staleness-alpha", 0.5, "polynomial staleness discount 1/(1+s)^alpha for async folds (0 = no discount); also parameterizes heterobench's async-sweep")
	fs.StringVar(&a.LatencyModel, "latency-model", a.LatencyModel, "virtual client latency for -async runs: zero, const:D, uniform:LO,HI, straggler:LO,HI,P,FACTOR (empty = zero; heterobench's async-sweep replaces its matching arm with it)")
	fs.IntVar(&a.Depth, "async-depth", 2, "in-flight async jobs as a multiple of K (1 = no overlap, so no staleness)")
	fs.StringVar(&o.Faults, "faults", "", "seeded fault injection: crash:P, flaky:P,R, corrupt:P,MODE, churn:PERIOD,ON, combined with '+' (empty = fault-free; crash/flaky/churn need -async, crash/flaky also -fault-timeout)")
	fs.Float64Var(&o.MaxDeltaNorm, "max-delta-norm", 0, "update validation gate: reject client deltas with non-finite values or L2 norm above this (0 = gate off, unless -faults is set, then +Inf = non-finite check only)")
	fs.Float64Var(&a.Timeout, "fault-timeout", 0, "async per-job virtual timeout before deterministic reissue (0 = no timeouts)")
	fs.Float64Var(&a.RetryBackoff, "fault-backoff", 0, "base virtual reissue backoff, doubled each attempt (needs -fault-timeout)")
	fs.IntVar(&a.MaxAttempts, "fault-attempts", 0, "max dispatch attempts per job before its client counts failed (0 = 3 when timeouts are on)")
	fs.IntVar(&a.MaxStaleness, "max-staleness", 0, "drop async results staler than this many aggregation windows instead of folding them (0 = fold everything)")
}

// Apply is the one place the options are checked: it rejects a scale that is
// not finite and positive, a negative worker count, intra-op budget or async
// depth, and a latency model or fault spec that does not parse, naming the
// flag. Run and NewFL call it; a binary calls it itself before any work, so a
// bad flag fails before the device federation is captured.
func (o Options) Apply() error {
	switch {
	case !(o.Scale > 0) || math.IsInf(o.Scale, 1):
		return fmt.Errorf("experiments: -scale %g: want a finite value > 0", o.Scale)
	case o.Workers < 0:
		return fmt.Errorf("experiments: -workers %d: want >= 0", o.Workers)
	case o.IntraOp < 0:
		return fmt.Errorf("experiments: -intraop %d: want >= 0", o.IntraOp)
	case o.Async.Depth < 0:
		return fmt.Errorf("experiments: -async-depth %d: want >= 0", o.Async.Depth)
	}
	if _, err := simclock.ParseModel(o.Async.LatencyModel, o.Seed); err != nil {
		return fmt.Errorf("experiments: -latency-model: %w", err)
	}
	if _, err := faults.ParseSpec(o.Faults, o.Seed); err != nil {
		return fmt.Errorf("experiments: -faults: %w", err)
	}
	return nil
}

// DefaultOptions returns the standard configuration (Scale 1), training on
// every CPU (at most 8 workers).
func DefaultOptions() Options {
	return Options{Scale: 1, Seed: 42, Workers: min(runtime.NumCPU(), 8)}
}

// FLConfig is the fl.Config every harness and flsim run: E=1 with the caller's
// own rounds, K, batch size and learning rate, and the seed, worker count and
// intra-op budget of the options.
func (o Options) FLConfig(rounds, k, batch int, lr float64) fl.Config {
	return fl.Config{
		Rounds:          rounds,
		ClientsPerRound: k,
		BatchSize:       batch,
		LocalEpochs:     1,
		LR:              lr,
		Seed:            o.Seed,
		Workers:         o.Workers,
		IntraOp:         o.IntraOp,
	}
}

// IntraOpBudget returns the frozen forward's intra-op budget for a model that
// trains and evaluates alone (Fig 3): the explicit IntraOp option when set,
// otherwise the full machine (there is no worker parallelism to share it
// with).
func (o Options) IntraOpBudget() int { return parallel.Share(o.IntraOp, 1) }

// scaled returns max(1, round(n*Scale)).
func (o Options) scaled(n int) int {
	v := int(float64(n)*o.Scale + 0.5)
	if v < 1 {
		v = 1
	}
	return v
}

// DeviceData is the captured federation workload: every Table-1 device's
// train and test datasets, derived from SHARED latent scenes (the paper's
// controlled collection protocol).
type DeviceData struct {
	Profiles []*device.Profile
	Train    map[int]*dataset.Dataset
	Test     map[int]*dataset.Dataset
	Classes  int
}

// DeviceIndex returns the index of the named profile, or -1.
func (dd *DeviceData) DeviceIndex(name string) int {
	for i, p := range dd.Profiles {
		if p.Name == name {
			return i
		}
	}
	return -1
}

// AllTest concatenates every device's test set.
func (dd *DeviceData) AllTest() *dataset.Dataset {
	parts := make([]*dataset.Dataset, len(dd.Profiles))
	for i := range dd.Profiles {
		parts[i] = dd.Test[i]
	}
	return dataset.Concat(parts...)
}

// BuildDeviceData renders perClassTrain+perClassTest scenes per class and
// captures them with every Table-1 device: each device photographs the
// train scenes and then the test scenes on its own noise stream, with the
// images spread over opts.Workers (dataset.CaptureDevices).
func BuildDeviceData(opts Options, perClassTrain, perClassTest int, mode dataset.CaptureMode) (*DeviceData, error) {
	gen := scene.NewImageNet12(64)
	rng := frand.New(opts.Seed)
	trainScenes := gen.RenderSet(perClassTrain, rng.SplitNamed("train-scenes"))
	testScenes := gen.RenderSet(perClassTest, rng.SplitNamed("test-scenes"))
	profiles := device.Profiles()

	rngs := make([]*frand.RNG, len(profiles))
	for i := range rngs {
		rngs[i] = frand.New(opts.Seed ^ uint64(i+1)*0x9e3779b97f4a7c15)
	}
	scenes := append(trainScenes[:len(trainScenes):len(trainScenes)], testScenes...)
	sets, err := dataset.CaptureDevices(scenes, profiles, mode, OutRes, gen.NumClasses(), rngs, opts.Workers)
	if err != nil {
		return nil, err
	}
	dd := &DeviceData{
		Profiles: profiles,
		Train:    map[int]*dataset.Dataset{},
		Test:     map[int]*dataset.Dataset{},
		Classes:  gen.NumClasses(),
	}
	n := len(trainScenes)
	for i, ds := range sets {
		dd.Train[i] = &dataset.Dataset{Samples: ds.Samples[:n:n], NumClasses: ds.NumClasses}
		dd.Test[i] = &dataset.Dataset{Samples: ds.Samples[n:], NumClasses: ds.NumClasses}
	}
	return dd, nil
}

// TrainCentralized runs plain minibatch SGD for the given epochs — the
// single-device training used by the characterization experiments (§3) —
// on the serial kernels. The budget of the frozen forward that evaluates
// the model afterwards is the caller's to set (nn.Network.SetIntraOp).
func TrainCentralized(net *nn.Network, ds *dataset.Dataset, epochs, batch int, lr float64, rng *frand.RNG) {
	cfg := fl.Config{
		Rounds: 1, ClientsPerRound: 1,
		BatchSize: batch, LocalEpochs: epochs, LR: lr, Workers: 1,
	}
	fl.TrainLocal(net, ds, cfg, nn.SoftmaxCrossEntropy{}, rng, nil, nil)
}

// SimpleCNNBuilder is the characterization model builder (fast; the paper's
// trends do not depend on architecture for §3-4, and §6.3/Table 5 covers the
// architecture axis explicitly).
func SimpleCNNBuilder(seed uint64, classes int) models.Builder {
	b, err := models.BuilderFor(models.ArchSimpleCNN, seed, 3, classes)
	if err != nil {
		panic(err)
	}
	return b
}

// MobileNetBuilder is the §6 default model builder.
func MobileNetBuilder(seed uint64, classes int) models.Builder {
	b, err := models.BuilderFor(models.ArchMobileNet, seed, 3, classes)
	if err != nil {
		panic(err)
	}
	return b
}

// MarketShareCounts allocates n clients to the Table-1 devices by market
// share.
func MarketShareCounts(dd *DeviceData, n int) []int {
	return fl.DeviceCounts(device.MarketShares(dd.Profiles), n)
}

// EqualCounts allocates n clients evenly across devices (used by the DG
// experiments where every device participates equally).
func EqualCounts(numDevices, n int) []int {
	counts := make([]int, numDevices)
	for i := 0; i < n; i++ {
		counts[i%numDevices]++
	}
	return counts
}

// Trainer is the surface the harnesses consume from federated training —
// satisfied by both fl.Server and fl.AsyncServer, so every harness runs
// unchanged under Options.Async.
type Trainer interface {
	// Run executes the configured rounds (or aggregation windows), invoking
	// callback, when non-nil, with each one's stats.
	Run(callback func(fl.RoundStats))
	GlobalNet() *nn.Network
}

// RunFL builds a population from dd.Train according to counts, runs the
// strategy for cfg.Rounds (synchronously, or on the async server when
// opts.Async.Enabled), and returns the trained server.
func RunFL(opts Options, strategy fl.Strategy, dd *DeviceData, counts []int, cfg fl.Config, builder models.Builder) (Trainer, error) {
	return RunFLWithLoss(opts, strategy, dd.Train, counts, cfg, builder, nn.SoftmaxCrossEntropy{})
}

// RunFLWithLoss is RunFL with an explicit per-device dataset map and loss
// (the multi-label and regression experiments use BCE / MSE).
func RunFLWithLoss(opts Options, strategy fl.Strategy, perDevice map[int]*dataset.Dataset, counts []int,
	cfg fl.Config, builder models.Builder, loss nn.Loss) (Trainer, error) {
	srv, _, err := NewFL(opts, strategy, perDevice, counts, cfg, builder, loss)
	if err != nil {
		return nil, err
	}
	srv.Run(nil)
	return srv, nil
}

// NewFL is the one way to stand up a federation: it builds the population
// from perDevice according to counts and returns the trainer for strategy —
// the barrier server, or the event-loop server when opts.Async.Enabled —
// without running it, together with the configuration it resolved (K clamped
// to the population, the robustness options applied).
func NewFL(opts Options, strategy fl.Strategy, perDevice map[int]*dataset.Dataset, counts []int,
	cfg fl.Config, builder models.Builder, loss nn.Loss) (Trainer, fl.Config, error) {
	var async *AsyncOptions
	if opts.Async.Enabled {
		async = &opts.Async
	}
	return opts.newFL(strategy, perDevice, counts, cfg, builder, loss, async)
}

// newFL is the constructor behind NewFL and behind the harnesses that pick
// their own engine per arm (AsyncSweep, TrainWhileServe): check and apply the
// options, build the population, clamp K to it, resolve faults and the gate,
// then the barrier server when async is nil and otherwise the event-loop
// server (an *fl.AsyncServer) on async resolved for the clamped K. The engine
// is this argument, never async.Enabled.
func (o Options) newFL(strategy fl.Strategy, perDevice map[int]*dataset.Dataset, counts []int,
	cfg fl.Config, builder models.Builder, loss nn.Loss, async *AsyncOptions) (Trainer, fl.Config, error) {
	if err := o.Apply(); err != nil {
		return nil, cfg, err
	}
	clients, err := fl.BuildPopulation(perDevice, counts, cfg.Seed)
	if err != nil {
		return nil, cfg, err
	}
	cfg.ClientsPerRound = min(cfg.ClientsPerRound, len(clients))
	// A configured fault model defaults the gate to +Inf (reject non-finite
	// updates) so injected corruption can never silently poison the global
	// model; an explicit MaxDeltaNorm always wins.
	if cfg.Faults, err = faults.ParseSpec(o.Faults, cfg.Seed); err != nil {
		return nil, cfg, err
	}
	cfg.MaxDeltaNorm = o.MaxDeltaNorm
	if cfg.Faults != nil && cfg.MaxDeltaNorm == 0 {
		cfg.MaxDeltaNorm = math.Inf(1)
	}
	if async == nil {
		srv, err := fl.NewServer(cfg, builder, loss, strategy, clients)
		return srv, cfg, err
	}
	acfg, err := async.Config(cfg.ClientsPerRound, cfg.Seed)
	if err != nil {
		return nil, cfg, err
	}
	srv, err := fl.NewAsyncServer(cfg, builder, loss, strategy, clients, acfg)
	return srv, cfg, err
}

// PerDeviceAccuracies evaluates the network on each device's test set,
// returning accuracies indexed by device.
func PerDeviceAccuracies(net *nn.Network, dd *DeviceData, batch int) map[int]float64 {
	out := map[int]float64{}
	for i := range dd.Profiles {
		out[i] = metrics.Accuracy(net, dd.Test[i], batch)
	}
	return out
}

// Table rendering -------------------------------------------------------------

// Table is a minimal text table used by all result printers.
type Table struct {
	Title   string
	Header  []string
	RowData [][]string
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...string) { t.RowData = append(t.RowData, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.RowData {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.RowData {
		line(row)
	}
	return b.String()
}

// pct formats a fraction as a percentage with one decimal.
func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }
