// Package experiments contains one harness per table and figure of the
// paper's evaluation. Each harness builds its workload from the simulated
// device population, runs the training protocol, and returns a result whose
// String() renders the same rows/series the paper reports.
//
// Every federated accuracy harness reads its accuracies through Evaluate, on
// the test sets it passes, so which round, batch and statistic score a
// method is decided in one place. Every federation is built through NewFL.
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
	// Enabled switches NewFL to the asynchronous server, for every strategy.
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
	// names); Timeout 0 disables timeouts: every job completes at its drawn
	// latency.
	Timeout      float64
	RetryBackoff float64
	MaxAttempts  int
	// MaxStaleness drops results staler than this many windows instead of
	// folding them (fl.AsyncConfig.MaxStaleness). 0 folds everything.
	MaxStaleness int
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
// -fault-backoff, -fault-attempts, -max-staleness. Every default is the
// field's value at bind time: bind on DefaultOptions, setting a field first
// where a binary's own default differs.
func (o *Options) BindFlags(fs *flag.FlagSet) {
	o.BindMachineFlags(fs)
	a := &o.Async
	fs.BoolVar(&a.Enabled, "async", a.Enabled, "asynchronous staleness-aware aggregation on a deterministic virtual-time simulation (no round waits for its stragglers)")
	fs.Float64Var(&a.StalenessAlpha, "staleness-alpha", a.StalenessAlpha, "polynomial staleness discount 1/(1+s)^alpha for async folds (0 = no discount)")
	fs.StringVar(&a.LatencyModel, "latency-model", a.LatencyModel, "virtual client latency for -async runs: zero, const:D, uniform:LO,HI, straggler:LO,HI,P,FACTOR (empty = zero)")
	fs.IntVar(&a.Depth, "async-depth", a.Depth, "in-flight async jobs as a multiple of K (1 = no overlap, so no staleness)")
	fs.StringVar(&o.Faults, "faults", o.Faults, "seeded fault injection: crash:P, flaky:P,R, corrupt:P,MODE, churn:PERIOD,ON, combined with '+' (empty = fault-free; crash/flaky/churn need -async, crash/flaky also -fault-timeout)")
	fs.Float64Var(&o.MaxDeltaNorm, "max-delta-norm", o.MaxDeltaNorm, "update validation gate: reject client deltas with non-finite values or L2 norm above this (0 = gate off, unless -faults is set, then +Inf = non-finite check only)")
	fs.Float64Var(&a.Timeout, "fault-timeout", a.Timeout, "async per-job virtual timeout before deterministic reissue (0 = no timeouts)")
	fs.Float64Var(&a.RetryBackoff, "fault-backoff", a.RetryBackoff, "base virtual reissue backoff, doubled each attempt (needs -fault-timeout)")
	fs.IntVar(&a.MaxAttempts, "fault-attempts", a.MaxAttempts, "max dispatch attempts per job before its client counts failed (0 = 3 when timeouts are on)")
	fs.IntVar(&a.MaxStaleness, "max-staleness", a.MaxStaleness, "drop async results staler than this many aggregation windows instead of folding them (0 = fold everything)")
}

// Apply is the one place the options are checked: it rejects a scale that is
// not finite and positive; a negative worker count, intra-op budget, async
// depth, attempt cap or staleness cap; a delta-norm gate that is negative or
// NaN; a timeout or backoff that is negative or not finite; a staleness
// exponent that is not finite; and a latency model or fault spec that does
// not parse, naming the flag. Run and NewFL call it; a binary calls it
// itself before any work, so a bad flag fails before the device federation
// is captured.
func (o Options) Apply() error {
	a := o.Async
	switch {
	case !(o.Scale > 0) || math.IsInf(o.Scale, 1):
		return fmt.Errorf("experiments: -scale %g: want a finite value > 0", o.Scale)
	case o.Workers < 0:
		return fmt.Errorf("experiments: -workers %d: want >= 0", o.Workers)
	case o.IntraOp < 0:
		return fmt.Errorf("experiments: -intraop %d: want >= 0", o.IntraOp)
	case a.Depth < 0:
		return fmt.Errorf("experiments: -async-depth %d: want >= 0", a.Depth)
	case !(o.MaxDeltaNorm >= 0):
		return fmt.Errorf("experiments: -max-delta-norm %g: want >= 0", o.MaxDeltaNorm)
	case !(a.Timeout >= 0) || math.IsInf(a.Timeout, 1):
		return fmt.Errorf("experiments: -fault-timeout %g: want a finite value >= 0", a.Timeout)
	case !(a.RetryBackoff >= 0) || math.IsInf(a.RetryBackoff, 1):
		return fmt.Errorf("experiments: -fault-backoff %g: want a finite value >= 0", a.RetryBackoff)
	case a.MaxAttempts < 0:
		return fmt.Errorf("experiments: -fault-attempts %d: want >= 0", a.MaxAttempts)
	case a.MaxStaleness < 0:
		return fmt.Errorf("experiments: -max-staleness %d: want >= 0", a.MaxStaleness)
	case math.IsNaN(a.StalenessAlpha) || math.IsInf(a.StalenessAlpha, 0):
		return fmt.Errorf("experiments: -staleness-alpha %g: want a finite value", a.StalenessAlpha)
	}
	if _, err := simclock.ParseModel(a.LatencyModel, o.Seed); err != nil {
		return fmt.Errorf("experiments: -latency-model: %w", err)
	}
	if _, err := faults.ParseSpec(o.Faults, o.Seed); err != nil {
		return fmt.Errorf("experiments: -faults: %w", err)
	}
	return nil
}

// DefaultOptions returns the standard configuration, which is also every
// shared flag's default: Scale 1, seed 42, training on every CPU (at most 8
// workers), synchronous aggregation, and for an -async run a staleness
// exponent of 0.5 at pipeline depth 2.
func DefaultOptions() Options {
	return Options{Scale: 1, Seed: 42, Workers: min(runtime.NumCPU(), 8),
		Async: AsyncOptions{StalenessAlpha: 0.5, Depth: 2}}
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

// PerClassTest is the number of test scenes per class each device captures
// at Scale 1 in the device-federation harnesses, scaled like every other
// size, and in flsim: 25 scenes of 12 classes put one device's accuracy on a
// 1/300 grid, where the 4 it replaced left it on a 1/48 one.
const PerClassTest = 25

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
// controlled collection protocol). Train is keyed by device index, the shape
// fl.BuildPopulation takes; Test is in device order.
type DeviceData struct {
	Profiles []*device.Profile
	Train    map[int]*dataset.Dataset
	Test     []*dataset.Dataset
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
func (dd *DeviceData) AllTest() *dataset.Dataset { return dataset.Concat(dd.Test...) }

// sceneSets renders the shared latent scenes of the controlled collection
// protocol, perClassTrain train and perClassTest test scenes per class (0
// renders none), and returns them with the class count. It is their one
// source: BuildDeviceData captures them, and Fig 1's S9 replicas, Fig 3 and
// unseen-dg take them from here, so every device photographs the same scenes.
func sceneSets(seed uint64, perClassTrain, perClassTest int) (train, test []scene.Scene, classes int) {
	gen := scene.NewImageNet12(64)
	rng := frand.New(seed)
	trainRNG, testRNG := rng.SplitNamed("train-scenes"), rng.SplitNamed("test-scenes")
	return gen.RenderSet(perClassTrain, trainRNG), gen.RenderSet(perClassTest, testRNG), gen.NumClasses()
}

// BuildDeviceData renders perClassTrain+perClassTest scenes per class
// (sceneSets) and captures them with every Table-1 device in one
// dataset.CaptureDevices call: device i photographs the train scenes and
// then the test scenes on its own noise stream, its samples tagged i, with
// the images spread over opts.Workers.
func BuildDeviceData(opts Options, perClassTrain, perClassTest int, mode dataset.CaptureMode) (*DeviceData, error) {
	trainScenes, testScenes, classes := sceneSets(opts.Seed, perClassTrain, perClassTest)
	profiles := device.Profiles()

	tags := make([]int, len(profiles))
	rngs := make([]*frand.RNG, len(profiles))
	for i := range rngs {
		tags[i], rngs[i] = i, frand.New(opts.Seed^uint64(i+1)*0x9e3779b97f4a7c15)
	}
	scenes := append(trainScenes[:len(trainScenes):len(trainScenes)], testScenes...)
	sets, err := dataset.CaptureDevices(scenes, profiles, mode, OutRes, classes, tags, rngs, opts.Workers)
	if err != nil {
		return nil, err
	}
	dd := &DeviceData{
		Profiles: profiles,
		Train:    map[int]*dataset.Dataset{},
		Classes:  classes,
	}
	n := len(trainScenes)
	for i, ds := range sets {
		dd.Train[i] = &dataset.Dataset{Samples: ds.Samples[:n:n], NumClasses: ds.NumClasses}
		dd.Test = append(dd.Test, &dataset.Dataset{Samples: ds.Samples[n:], NumClasses: ds.NumClasses})
	}
	return dd, nil
}

// TrainCentralized runs plain minibatch SGD for the given epochs at §3's
// B = 10 and η = 0.05 — the single-device training of the characterization
// experiments — on the serial kernels. The budget of the frozen forward that
// evaluates the model afterwards is the caller's (nn.Network.SetIntraOp).
func TrainCentralized(net *nn.Network, ds *dataset.Dataset, epochs int, rng *frand.RNG) {
	cfg := fl.Config{
		Rounds: 1, ClientsPerRound: 1,
		BatchSize: 10, LocalEpochs: epochs, LR: 0.05, Workers: 1,
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

// NewFL is the one way to stand up a federation. It checks opts (Apply),
// builds the population from perDevice according to counts, clamps K to it
// and applies the fault model and the update gate; then it returns the
// trainer for strategy, without running it, and the configuration it
// resolved. The trainer is the barrier server (*fl.Server), or the event-loop
// server (*fl.AsyncServer) on opts.Async when opts.Async.Enabled.
func NewFL(opts Options, strategy fl.Strategy, perDevice map[int]*dataset.Dataset, counts []int,
	cfg fl.Config, builder models.Builder, loss nn.Loss) (Trainer, fl.Config, error) {
	if err := opts.Apply(); err != nil {
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
	if cfg.Faults, err = faults.ParseSpec(opts.Faults, cfg.Seed); err != nil {
		return nil, cfg, err
	}
	cfg.MaxDeltaNorm = opts.MaxDeltaNorm
	if cfg.Faults != nil && cfg.MaxDeltaNorm == 0 {
		cfg.MaxDeltaNorm = math.Inf(1)
	}
	a := opts.Async
	if !a.Enabled {
		srv, err := fl.NewServer(cfg, builder, loss, strategy, clients)
		return srv, cfg, err
	}
	lat, err := simclock.ParseModel(a.LatencyModel, cfg.Seed)
	if err != nil {
		return nil, cfg, err
	}
	k := cfg.ClientsPerRound
	srv, err := fl.NewAsyncServer(cfg, builder, loss, strategy, clients, fl.AsyncConfig{
		Staleness:    fl.PolynomialStaleness{Alpha: a.StalenessAlpha},
		Latency:      lat,
		Concurrency:  max(a.Depth, 1) * k,
		Buffer:       k,
		Timeout:      a.Timeout,
		RetryBackoff: a.RetryBackoff,
		MaxAttempts:  a.MaxAttempts,
		MaxStaleness: a.MaxStaleness,
	})
	return srv, cfg, err
}

// Evaluate is the one readout of every federated accuracy harness: it runs
// tr for its configured rounds, invoking each (when non-nil) with every
// round's stats, then scores the final global network on each of tests (the
// per-device sets, one device's, or the pooled dd.AllTest()) at batch 16.
// The score's PerDevice is in tests' order; the network it scored is
// tr.GlobalNet().
func Evaluate(tr Trainer, method string, tests []*dataset.Dataset, each func(fl.RoundStats)) MethodScore {
	tr.Run(each)
	return scoreFromAccuracies(method, accuracies(tr.GlobalNet(), tests, 16))
}

// PerDeviceAccuracies evaluates the network on each of dd.Test, returning
// the accuracies in device order. The harnesses score through Evaluate; this
// is kept because cmd/perfbook times the per-device loop through it.
func PerDeviceAccuracies(net *nn.Network, dd *DeviceData, batch int) []float64 {
	return accuracies(net, dd.Test, batch)
}

// accuracies is the one per-set accuracy loop: net's accuracy on each of
// sets, in order.
func accuracies(net *nn.Network, sets []*dataset.Dataset, batch int) []float64 {
	out := make([]float64, len(sets))
	for i, ds := range sets {
		out[i] = metrics.Accuracy(net, ds, batch)
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
