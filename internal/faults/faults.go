// Package faults provides seeded, composable client-failure models for the
// virtual-time federated simulation: crash (a dispatched job never
// completes), transient failure (a job fails a fixed number of attempts
// before succeeding), update corruption (NaN/Inf or norm-blowup injected
// into the returned delta), and availability churn (on/off duty cycles
// gating when a client may be dispatched).
//
// Like internal/simclock's latency models, every draw is a pure function of
// the model's configuration and integer keys — no internal state, no wall
// clock — so a chaos run is exactly as bit-reproducible as a fault-free one:
// the same seed replays the same crashes, the same corrupted updates, and
// the same duty cycles, in any consumption order. Models are parsed from CLI
// specs (ParseSpec) and consumed by fl.Server, fl.AsyncServer, and the cmd/
// binaries.
package faults

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"heteroswitch/internal/simclock"
)

// Mode identifies how a corrupted update is poisoned.
type Mode int

const (
	// None means the update is left intact.
	None Mode = iota
	// NaN overwrites part of the returned delta with NaN.
	NaN
	// Inf overwrites part of the returned delta with +Inf.
	Inf
	// Blowup scales the returned delta by a huge factor (finite values, but
	// a norm far beyond anything honest training produces).
	Blowup
	// Mix picks one of NaN/Inf/Blowup per corrupted job, hash-seeded.
	Mix
)

// String returns the mode's spec keyword.
func (m Mode) String() string {
	switch m {
	case None:
		return "none"
	case NaN:
		return "nan"
	case Inf:
		return "inf"
	case Blowup:
		return "blowup"
	case Mix:
		return "mix"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Forever is the FailCount result for a crashed job: no attempt ever
// completes, so the consumer's retry budget — not the fault model — decides
// when to give up.
const Forever = math.MaxInt

// Salts separating the model's independent coin streams from one seed.
const (
	crashSalt   = 0x6372_6173_68_5f5f_01
	flakySalt   = 0x666c_616b_79_5f5f_02
	corruptSalt = 0x636f_7272_75_5f5f_03
	modeSalt    = 0x6d6f_6465_5f_5f5f_04
	churnSalt   = 0x6368_7572_6e_5f5f_06
)

// Model is a composed per-client fault process. The zero value injects
// nothing; a nil *Model is the canonical "no faults" and is safe to query
// through the helper methods. Fields are exported so tests can construct
// targeted models directly; production configurations come from ParseSpec.
type Model struct {
	// Seed drives every coin in the model.
	Seed uint64

	// CrashP is the per-job probability that no attempt ever completes.
	CrashP float64

	// FlakyP is the per-job probability of transient failure: the job's
	// first FlakyRetries attempts fail, then it completes normally.
	FlakyP       float64
	FlakyRetries int

	// CorruptP is the per-job probability that the returned update is
	// poisoned with CorruptMode before upload.
	CorruptP    float64
	CorruptMode Mode

	// ChurnPeriod/ChurnOn describe the availability duty cycle: each client
	// is on-duty for ChurnOn×ChurnPeriod virtual-time units out of every
	// ChurnPeriod, at a hash-derived per-client phase. ChurnOn == 0 (or
	// ChurnPeriod == 0) disables churn; ChurnOn >= 1 is always-on.
	ChurnPeriod float64
	ChurnOn     float64
}

// Enabled reports whether the model injects anything at all.
func (m *Model) Enabled() bool {
	return m != nil && (m.CrashP > 0 || m.FlakyP > 0 || m.CorruptP > 0 || m.churning())
}

// NeedsVirtualTime reports whether the model includes processes that only
// make sense on a virtual-time event loop (crash and transient failure need
// timeouts and reissue; churn needs a clock to gate duty cycles against).
// The synchronous server rejects such models; corruption-only models
// run on both engines.
func (m *Model) NeedsVirtualTime() bool {
	return m != nil && (m.CrashP > 0 || m.FlakyP > 0 || m.churning())
}

// NeedsTimeout reports whether the model can make a dispatched job fail to
// complete, which requires the consumer to arm per-job timeouts.
func (m *Model) NeedsTimeout() bool {
	return m != nil && (m.CrashP > 0 || m.FlakyP > 0)
}

func (m *Model) churning() bool {
	return m.ChurnPeriod > 0 && m.ChurnOn > 0 && m.ChurnOn < 1
}

// FailCount returns how many of the job's dispatch attempts fail before one
// completes: 0 for a healthy job, FlakyRetries for a transiently failing
// one, and Forever for a crash. job must be a stable per-job key (the async
// server uses the job's first dispatch sequence number) so retries of the
// same job replay the same draw.
func (m *Model) FailCount(client, job int) int {
	if m == nil {
		return 0
	}
	if m.CrashP > 0 && simclock.Hash01(m.Seed^crashSalt, client, job) < m.CrashP {
		return Forever
	}
	if m.FlakyP > 0 && simclock.Hash01(m.Seed^flakySalt, client, job) < m.FlakyP {
		return m.FlakyRetries
	}
	return 0
}

// Corruption returns the poisoning applied to the job's returned update, or
// None. A Mix model resolves to a concrete mode here, hash-picked per job.
func (m *Model) Corruption(client, job int) Mode {
	if m == nil || m.CorruptP == 0 ||
		simclock.Hash01(m.Seed^corruptSalt, client, job) >= m.CorruptP {
		return None
	}
	mode := m.CorruptMode
	if mode == Mix {
		switch d := simclock.Hash01(m.Seed^modeSalt, client, job); {
		case d < 1.0/3:
			mode = NaN
		case d < 2.0/3:
			mode = Inf
		default:
			mode = Blowup
		}
	}
	return mode
}

// phase returns the client's duty-cycle offset in [0, ChurnPeriod).
func (m *Model) phase(client int) float64 {
	return simclock.Hash01(m.Seed^churnSalt, client, 0) * m.ChurnPeriod
}

// Available reports whether the client is on-duty at virtual time t.
func (m *Model) Available(client int, t float64) bool {
	if m == nil || !m.churning() {
		return true
	}
	pos := math.Mod(t+m.phase(client), m.ChurnPeriod)
	if pos < 0 {
		pos += m.ChurnPeriod
	}
	return pos < m.ChurnOn*m.ChurnPeriod
}

// NextOn returns the earliest virtual time >= t at which the client is
// on-duty: t itself when already available, otherwise the start of the
// client's next duty window.
func (m *Model) NextOn(client int, t float64) float64 {
	if m.Available(client, t) {
		return t
	}
	pos := math.Mod(t+m.phase(client), m.ChurnPeriod)
	if pos < 0 {
		pos += m.ChurnPeriod
	}
	next := t + (m.ChurnPeriod - pos)
	// Float rounding can land next an ulp short of the window boundary; step
	// deterministically until Available agrees (a handful of ulps at most,
	// far below any event-time resolution).
	for !m.Available(client, next) {
		next = math.Nextafter(next, math.Inf(1))
	}
	return next
}

// String renders the model as a canonical ParseSpec spec (fixed clause
// order; the seed is external, as in ParseSpec). A nil or empty model
// renders as "none".
func (m *Model) String() string {
	if !m.Enabled() {
		return "none"
	}
	var parts []string
	if m.CrashP > 0 {
		parts = append(parts, fmt.Sprintf("crash:%g", m.CrashP))
	}
	if m.FlakyP > 0 {
		parts = append(parts, fmt.Sprintf("flaky:%g,%d", m.FlakyP, m.FlakyRetries))
	}
	if m.CorruptP > 0 {
		parts = append(parts, fmt.Sprintf("corrupt:%g,%s", m.CorruptP, m.CorruptMode))
	}
	if m.churning() {
		parts = append(parts, fmt.Sprintf("churn:%g,%g", m.ChurnPeriod, m.ChurnOn))
	}
	return strings.Join(parts, "+")
}

// ParseSpec builds a Model from a CLI spec, seeding every coin from seed.
// A spec is one or more clauses joined by "+":
//
//	none (or "")            no faults (returns a nil model)
//	crash:P                 each job crashes (never completes) w.p. P
//	flaky:P,R               each job w.p. P fails its first R attempts, then
//	                        completes (R >= 1 retries)
//	corrupt:P,MODE          each completed job's update is poisoned w.p. P;
//	                        MODE is nan, inf, blowup, or mix
//	churn:PERIOD,ONFRAC     availability duty cycle: on for ONFRAC×PERIOD
//	                        out of every PERIOD virtual-time units, at a
//	                        per-client hash-derived phase (0 < ONFRAC < 1)
//
// Each clause may appear at most once. Example:
//
//	crash:0.1+flaky:0.2,2+corrupt:0.05,mix+churn:40,0.6
func ParseSpec(spec string, seed uint64) (*Model, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "none" {
		return nil, nil
	}
	m := &Model{Seed: seed}
	seen := map[string]bool{}
	for _, clause := range strings.Split(spec, "+") {
		name, argStr, _ := strings.Cut(strings.TrimSpace(clause), ":")
		if seen[name] {
			return nil, fmt.Errorf("faults: spec %q repeats clause %q", spec, name)
		}
		seen[name] = true
		var rawArgs []string
		if argStr != "" {
			rawArgs = strings.Split(argStr, ",")
			for i := range rawArgs {
				rawArgs[i] = strings.TrimSpace(rawArgs[i])
			}
		}
		bad := func(want string) error {
			return fmt.Errorf("faults: spec %q: clause %q wants %s", spec, clause, want)
		}
		// ParseFloat accepts "nan" and "inf" as numbers, so probabilities must
		// be checked with guards NaN cannot slip through, and corrupt's MODE
		// word is never parsed as a float.
		num := func(s string) (float64, error) {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return 0, fmt.Errorf("faults: spec %q: %v", spec, err)
			}
			return v, nil
		}
		prob := func(s string) (float64, error) {
			v, err := num(s)
			if err != nil {
				return 0, err
			}
			if !(v > 0 && v <= 1) {
				return 0, bad("a probability in (0,1]")
			}
			return v, nil
		}
		switch name {
		case "crash":
			if len(rawArgs) != 1 {
				return nil, bad("crash:P with P in (0,1]")
			}
			p, err := prob(rawArgs[0])
			if err != nil {
				return nil, err
			}
			m.CrashP = p
		case "flaky":
			if len(rawArgs) != 2 {
				return nil, bad("flaky:P,R with P in (0,1] and integer R >= 1")
			}
			p, err := prob(rawArgs[0])
			if err != nil {
				return nil, err
			}
			r, err := num(rawArgs[1])
			if err != nil {
				return nil, err
			}
			// The bound keeps int(r) exact: beyond int's range the conversion
			// is undefined and String() would not round-trip.
			if !(r >= 1 && r <= math.MaxInt32 && r == math.Trunc(r)) {
				return nil, bad("flaky:P,R with P in (0,1] and integer R >= 1")
			}
			m.FlakyP = p
			m.FlakyRetries = int(r)
		case "corrupt":
			if len(rawArgs) != 2 {
				return nil, bad("corrupt:P,MODE with P in (0,1] and MODE nan|inf|blowup|mix")
			}
			p, err := prob(rawArgs[0])
			if err != nil {
				return nil, err
			}
			mode, err := parseMode(rawArgs[1])
			if err != nil {
				return nil, fmt.Errorf("faults: spec %q: %v", spec, err)
			}
			m.CorruptP = p
			m.CorruptMode = mode
		case "churn":
			if len(rawArgs) != 2 {
				return nil, bad("churn:PERIOD,ONFRAC with PERIOD > 0 and ONFRAC in (0,1)")
			}
			period, err := num(rawArgs[0])
			if err != nil {
				return nil, err
			}
			on, err := num(rawArgs[1])
			if err != nil {
				return nil, err
			}
			if !(period > 0 && !math.IsInf(period, 0)) || !(on > 0 && on < 1) {
				return nil, bad("churn:PERIOD,ONFRAC with PERIOD > 0 and ONFRAC in (0,1)")
			}
			m.ChurnPeriod = period
			m.ChurnOn = on
		default:
			return nil, fmt.Errorf("faults: unknown clause %q in spec %q (have crash, flaky, corrupt, churn)", name, spec)
		}
	}
	return m, nil
}

// parseMode maps a spec keyword to a corruption Mode.
func parseMode(s string) (Mode, error) {
	switch s {
	case "nan":
		return NaN, nil
	case "inf":
		return Inf, nil
	case "blowup":
		return Blowup, nil
	case "mix":
		return Mix, nil
	}
	return None, fmt.Errorf("unknown corruption mode %q (have nan, inf, blowup, mix)", s)
}
