package simclock

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// LatencyModel draws the virtual duration of one unit of client work (local
// training plus both network legs). Sample must be a pure function of the
// model's configuration and (id, step) — no internal state — so schedules
// replay identically across runs and are independent of the order in which
// the simulator happens to ask. id is typically a client ID and step a
// monotonically increasing dispatch counter, making every draw distinct.
type LatencyModel interface {
	Sample(id, step int) float64
}

// Constant is a fixed latency for every client and step. The zero value is
// the zero-latency model (every job completes at its dispatch instant).
type Constant struct {
	D float64
}

// Sample implements LatencyModel.
func (m Constant) Sample(int, int) float64 { return m.D }

// Uniform draws i.i.d. latencies uniformly from [Lo, Hi), hashed from
// (Seed, id, step).
type Uniform struct {
	Lo, Hi float64
	Seed   uint64
}

// Sample implements LatencyModel.
func (m Uniform) Sample(id, step int) float64 {
	return m.Lo + (m.Hi-m.Lo)*unit(m.Seed, id, step)
}

// StragglerTail models a heterogeneous fleet with a persistent slow tail:
// every draw starts uniform in [Lo, Hi), and clients deterministically
// marked as stragglers (a TailProb fraction of IDs, fixed per seed) are
// slowed by TailFactor on every step. This is the regime where asynchronous
// aggregation pays off: the same slow devices hold back every synchronous
// round.
type StragglerTail struct {
	Lo, Hi     float64
	TailProb   float64
	TailFactor float64
	Seed       uint64
}

// IsStraggler reports whether the model permanently slows the given client.
func (m StragglerTail) IsStraggler(id int) bool {
	return unit(m.Seed^stragglerSalt, id, 0) < m.TailProb
}

// Sample implements LatencyModel.
func (m StragglerTail) Sample(id, step int) float64 {
	d := m.Lo + (m.Hi-m.Lo)*unit(m.Seed, id, step)
	if m.IsStraggler(id) {
		d *= m.TailFactor
	}
	return d
}

// stragglerSalt separates the per-client straggler coin from the per-step
// latency stream so both draw independently from one seed.
const stragglerSalt = 0x5742_11d6_37c8_90a1

// Hash01 hashes (seed, a, b) to a uniform float64 in [0, 1): the package's
// stateless draw, exported for other virtual-time harnesses (internal/serve's
// arrival models) so every simulator shares one reproducible randomness
// primitive.
func Hash01(seed uint64, a, b int) float64 { return unit(seed, a, b) }

// unit hashes (seed, a, b) to a uniform float64 in [0, 1) with no allocation
// and no mutable state (SplitMix64 finalizer over a mixed key).
func unit(seed uint64, a, b int) float64 {
	x := seed ^ (uint64(a)+1)*0x9e3779b97f4a7c15 ^ (uint64(b)+2)*0xc2b2ae3d27d4eb4f
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) * (1.0 / (1 << 53))
}

// ParseModel builds a LatencyModel from a CLI spec, seeding the stochastic
// models from seed. Specs:
//
//	zero (or "")                    no latency: completions at dispatch time
//	const:D                         fixed latency D
//	uniform:LO,HI                   i.i.d. uniform in [LO, HI)
//	straggler:LO,HI,P,FACTOR        uniform base; a P fraction of clients is
//	                                persistently FACTOR× slower
func ParseModel(spec string, seed uint64) (LatencyModel, error) {
	name, argStr, _ := strings.Cut(spec, ":")
	var args []float64
	if argStr != "" {
		for _, s := range strings.Split(argStr, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil {
				return nil, fmt.Errorf("simclock: latency spec %q: %v", spec, err)
			}
			// ParseFloat accepts "nan", which every range guard below (written
			// as comparisons) would let through, and "inf", which would put
			// every completion at +Inf.
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("simclock: latency spec %q: %v is not a latency parameter", spec, v)
			}
			args = append(args, v)
		}
	}
	bad := func(want string) error {
		return fmt.Errorf("simclock: latency spec %q: want %s", spec, want)
	}
	switch name {
	case "", "zero":
		if len(args) != 0 {
			return nil, bad("zero (no arguments)")
		}
		return Constant{}, nil
	case "const":
		if len(args) != 1 || args[0] < 0 {
			return nil, bad("const:D with D >= 0")
		}
		return Constant{D: args[0]}, nil
	case "uniform":
		if len(args) != 2 || args[0] < 0 || args[1] < args[0] {
			return nil, bad("uniform:LO,HI with 0 <= LO <= HI")
		}
		return Uniform{Lo: args[0], Hi: args[1], Seed: seed}, nil
	case "straggler":
		if len(args) != 4 || args[0] < 0 || args[1] < args[0] ||
			args[2] < 0 || args[2] > 1 || args[3] < 1 {
			return nil, bad("straggler:LO,HI,P,FACTOR with 0 <= LO <= HI, P in [0,1], FACTOR >= 1")
		}
		return StragglerTail{Lo: args[0], Hi: args[1], TailProb: args[2], TailFactor: args[3], Seed: seed}, nil
	default:
		return nil, fmt.Errorf("simclock: unknown latency model %q (have zero, const, uniform, straggler)", name)
	}
}
