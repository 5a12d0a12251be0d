package experiments

import (
	"bytes"
	"flag"
	"math"
	"strings"
	"testing"

	"heteroswitch/internal/dataset"
	"heteroswitch/internal/fl"
	"heteroswitch/internal/frand"
	"heteroswitch/internal/nn"
	"heteroswitch/internal/tensor"
)

// Every bound flag parses into its field; an unset flag leaves the receiver's
// value where the receiver supplies the default (the machine flags and
// -latency-model) and the documented constant elsewhere; -h lists each name
// once.
func TestBindFlagsRoundTrip(t *testing.T) {
	receiver := DefaultOptions()
	receiver.Seed, receiver.Workers, receiver.IntraOp = 7, 3, 5
	receiver.Async.LatencyModel = "const:1"

	bind := func() (*flag.FlagSet, *Options) {
		o := receiver
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		o.BindFlags(fs)
		return fs, &o
	}

	fs, got := bind()
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	want := receiver
	want.Async.StalenessAlpha, want.Async.Depth = 0.5, 2
	if *got != want {
		t.Fatalf("no flags set:\n got %+v\nwant %+v", *got, want)
	}

	fs, got = bind()
	args := []string{
		"-seed", "99", "-workers", "6", "-intraop", "2",
		"-async", "-staleness-alpha", "0.25", "-latency-model", "uniform:1,3", "-async-depth", "4",
		"-faults", "corrupt:0.3,nan", "-max-delta-norm", "100", "-fault-timeout", "4",
		"-fault-backoff", "0.5", "-fault-attempts", "2", "-max-staleness", "3",
	}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	want = receiver
	want.Seed, want.Workers, want.IntraOp = 99, 6, 2
	want.Faults, want.MaxDeltaNorm = "corrupt:0.3,nan", 100
	want.Async = AsyncOptions{
		Enabled: true, StalenessAlpha: 0.25, LatencyModel: "uniform:1,3", Depth: 4,
		Timeout: 4, RetryBackoff: 0.5, MaxAttempts: 2, MaxStaleness: 3,
	}
	if *got != want {
		t.Fatalf("every flag set:\n got %+v\nwant %+v", *got, want)
	}

	// Every flag in args is bound, none is bound that args does not set, and
	// the usage text names each exactly once.
	var usage bytes.Buffer
	fs.SetOutput(&usage)
	fs.PrintDefaults()
	bound := 0
	fs.VisitAll(func(f *flag.Flag) {
		bound++
		if n := strings.Count(usage.String(), "  -"+f.Name+" ") + strings.Count(usage.String(), "  -"+f.Name+"\n"); n != 1 {
			t.Errorf("-h lists -%s %d times", f.Name, n)
		}
	})
	set := 0
	fs.Visit(func(*flag.Flag) { set++ })
	if bound != 13 || set != bound {
		t.Fatalf("BindFlags binds %d flags, the round trip set %d; want 13 and 13", bound, set)
	}

	machine := flag.NewFlagSet("machine", flag.ContinueOnError)
	o := receiver
	o.BindMachineFlags(machine)
	var names []string
	machine.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	if strings.Join(names, " ") != "intraop seed workers" {
		t.Fatalf("BindMachineFlags binds %v", names)
	}
}

// tinyFederation is a two-device synthetic workload for constructor tests: no
// capture, a dense model, nothing trained.
func tinyFederation() (map[int]*dataset.Dataset, []int, fl.Config, func() *nn.Network) {
	r := frand.New(3)
	mk := func() *dataset.Dataset {
		d := &dataset.Dataset{NumClasses: 2}
		for i := 0; i < 8; i++ {
			d.Samples = append(d.Samples, dataset.Sample{X: tensor.Randn(r, 0.5, 4), Label: i % 2})
		}
		return d
	}
	cfg := fl.Config{Rounds: 1, ClientsPerRound: 2, BatchSize: 4, LocalEpochs: 1, LR: 0.1, Seed: 3, Workers: 1}
	builder := func() *nn.Network { return nn.NewNetwork(nn.NewDense(frand.New(5), 4, 2)) }
	return map[int]*dataset.Dataset{0: mk(), 1: mk()}, []int{2, 2}, cfg, builder
}

// Bad options are rejected — with the flag's name — by both entry points, not
// silently clamped to something that runs; good ones pass both. A good row
// does not pay for a harness: it goes through Apply, which is all Run does
// before handing over.
func TestOptionsAreCheckedByRunAndNewFL(t *testing.T) {
	mod := func(f func(*Options)) Options {
		o := tinyOpts(0.05)
		f(&o)
		return o
	}
	cases := []struct {
		name string
		opts Options
		want string // substring of the error; "" = accepted
	}{
		{"defaults", mod(func(*Options) {}), ""},
		{"scale 1", mod(func(o *Options) { o.Scale = 1 }), ""},
		{"workers 0", mod(func(o *Options) { o.Workers = 0 }), ""},
		{"depth 0 async", mod(func(o *Options) { o.Async.Enabled = true }), ""},
		{"depth 3 async", mod(func(o *Options) { o.Async = AsyncOptions{Enabled: true, Depth: 3} }), ""},
		{"scale 0", mod(func(o *Options) { o.Scale = 0 }), "-scale"},
		{"scale -1", mod(func(o *Options) { o.Scale = -1 }), "-scale"},
		{"scale NaN", mod(func(o *Options) { o.Scale = math.NaN() }), "-scale"},
		{"scale +Inf", mod(func(o *Options) { o.Scale = math.Inf(1) }), "-scale"},
		{"workers -1", mod(func(o *Options) { o.Workers = -1 }), "-workers"},
		{"intraop -1", mod(func(o *Options) { o.IntraOp = -1 }), "-intraop"},
		{"depth -1", mod(func(o *Options) { o.Async.Depth = -1 }), "-async-depth"},
		{"latency const:inf", mod(func(o *Options) { o.Async.LatencyModel = "const:inf" }), "-latency-model"},
		{"faults bad clause", mod(func(o *Options) { o.Faults = "crash:0.5+flaky:x" }), "-faults"},
	}
	perDevice, counts, cfg, builder := tinyFederation()
	for _, c := range cases {
		runErr := c.opts.Apply()
		if c.want != "" {
			_, runErr = Run("fig4", c.opts)
		}
		_, _, flErr := NewFL(c.opts, fl.FedAvg{}, perDevice, counts, cfg, builder, nn.SoftmaxCrossEntropy{})
		for entry, err := range map[string]error{"Run": runErr, "NewFL": flErr} {
			switch {
			case c.want == "" && err != nil:
				t.Errorf("%s: %s rejected good options: %v", c.name, entry, err)
			case c.want != "" && err == nil:
				t.Errorf("%s: %s accepted bad options", c.name, entry)
			case c.want != "" && !strings.Contains(err.Error(), c.want):
				t.Errorf("%s: %s error %q does not name %q", c.name, entry, err, c.want)
			}
		}
	}
}

// async-sweep builds its arms through the constructor every federation goes
// through, so -faults and -max-delta-norm reach it: a crash model is refused
// by the barrier arm instead of being ignored, and a corruption model moves
// the table.
func TestAsyncSweepAppliesFaults(t *testing.T) {
	opts := tinyOpts(0.2)
	opts.Faults = "crash:0.5"
	if _, err := AsyncSweep(opts); err == nil || !strings.Contains(err.Error(), "needs the virtual-time async engine") {
		t.Fatalf("crash faults on the sync arm: got %v, want the barrier server's refusal", err)
	}
	if testing.Short() {
		t.Skip("heavy: two full five-arm sweeps")
	}
	clean, err := AsyncSweep(tinyOpts(0.2))
	if err != nil {
		t.Fatal(err)
	}
	opts.Faults = "corrupt:0.5,nan"
	faulty, err := AsyncSweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	if clean.String() == faulty.String() {
		t.Fatalf("corrupt:0.5,nan left the sweep's bytes unchanged — the fault model never reached the arms:\n%s", clean)
	}
}
