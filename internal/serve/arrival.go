package serve

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"heteroswitch/internal/simclock"
)

// ArrivalModel generates the virtual-time request process of the load
// harness. Delay must be a pure function of the model's configuration and
// (id, step) — no internal state — so the arrival schedule replays
// identically from the seed, like simclock.LatencyModel.
//
// Open-loop models ignore the server: Delay(0, i) is the gap between arrival
// i and arrival i+1, so a saturated server builds unbounded queues (the
// classic open-loop overload regime). Closed-loop models have Concurrency
// clients that wait for their response: Delay(client, step) is client's
// think time before its step'th request, so load self-limits at Concurrency
// outstanding.
type ArrivalModel interface {
	Delay(id, step int) float64
	// Closed reports whether the model is closed-loop (per-client think
	// times) rather than open-loop (global inter-arrival gaps).
	Closed() bool
}

// expDraw maps a Hash01 uniform to a unit-mean exponential deviate — the
// memoryless building block of both arrival models.
func expDraw(seed uint64, a, b int) float64 {
	return -math.Log1p(-simclock.Hash01(seed, a, b))
}

// OpenLoop is a Poisson-like open arrival process: i.i.d. exponential
// inter-arrival gaps with mean 1/Rate, hashed from (Seed, i).
type OpenLoop struct {
	Rate float64
	Seed uint64
}

// Delay implements ArrivalModel: the gap after arrival step.
func (m OpenLoop) Delay(_, step int) float64 { return expDraw(m.Seed, 0, step) / m.Rate }

// Closed implements ArrivalModel.
func (m OpenLoop) Closed() bool { return false }

// ClosedLoop models a fixed population of clients that each keep exactly one
// request outstanding: after a response, the client thinks for an
// exponential time with mean Think (0 = immediate re-issue) before its next
// request.
type ClosedLoop struct {
	Think float64
	Seed  uint64
}

// Delay implements ArrivalModel: client id's think time before its step'th
// request.
func (m ClosedLoop) Delay(id, step int) float64 {
	if m.Think == 0 {
		return 0
	}
	return m.Think * expDraw(m.Seed, id+1, step)
}

// Closed implements ArrivalModel.
func (m ClosedLoop) Closed() bool { return true }

// ServiceModel gives the virtual duration of executing one batch of n
// requests on a worker. Like every model in the harness it must be pure in
// (n, seq); seq is the batch's monotonic sequence number. The real compute
// (the frozen forward) runs regardless — the model prices its virtual time,
// which is what the latency quantiles integrate.
type ServiceModel interface {
	Batch(n, seq int) float64
}

// AffineService is the standard linear batch cost: Base per dispatch plus
// PerItem per request. PerItem/Base is the knob that makes micro-batching
// pay: large Base amortizes across a batch, pure PerItem makes batching
// latency-neutral.
type AffineService struct {
	Base, PerItem float64
}

// Batch implements ServiceModel.
func (m AffineService) Batch(n, _ int) float64 { return m.Base + m.PerItem*float64(n) }

// ParseArrival builds an ArrivalModel from a CLI spec, seeding it from seed.
// Specs:
//
//	closed:THINK    closed loop; each client thinks exp(THINK) between requests
//	open:RATE       open loop; Poisson arrivals at RATE requests per time unit
func ParseArrival(spec string, seed uint64) (ArrivalModel, error) {
	name, argStr, _ := strings.Cut(spec, ":")
	arg, err := strconv.ParseFloat(strings.TrimSpace(argStr), 64)
	if argStr == "" {
		arg, err = 0, nil
	}
	if err == nil && math.IsNaN(arg) {
		// ParseFloat accepts "nan", which the range guards below would let through.
		err = fmt.Errorf("NaN is not an arrival parameter")
	}
	if err != nil {
		return nil, fmt.Errorf("serve: arrival spec %q: %v", spec, err)
	}
	switch name {
	case "closed", "":
		if arg < 0 {
			return nil, fmt.Errorf("serve: arrival spec %q: want closed:THINK with THINK >= 0", spec)
		}
		return ClosedLoop{Think: arg, Seed: seed}, nil
	case "open":
		if arg <= 0 {
			return nil, fmt.Errorf("serve: arrival spec %q: want open:RATE with RATE > 0", spec)
		}
		return OpenLoop{Rate: arg, Seed: seed}, nil
	default:
		return nil, fmt.Errorf("serve: unknown arrival model %q (have closed, open)", name)
	}
}
