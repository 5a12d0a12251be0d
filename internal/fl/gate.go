package fl

// This file holds update validation and corruption injection: the
// server-side gate that keeps poisoned client updates out of the global
// accumulator, and the helper that applies a faults.Mode to a finished
// result so chaos runs can exercise that gate end to end. Both run inside
// the core's one client step (engine.step).

import (
	"math"

	"heteroswitch/internal/faults"
	"heteroswitch/internal/nn"
	"heteroswitch/internal/tensor"
)

// updateValid reports whether a client update passes the validation gate.
// The delta is the client's reported weights minus the global weights it
// trained from, over parameters and optimizer/BN states, accumulated in
// float64. maxNorm <= 0 disables the gate (always valid); otherwise a delta
// with a NaN or ±Inf element is rejected whatever the bound, and a finite one
// when its L2 norm exceeds maxNorm. maxNorm = +Inf therefore keeps only the
// non-finite check: it admits every finite delta and nothing else.
//
// The verdict is DEFINED by the serial sum: one float64 chain over every
// element, parameters then states, against maxNorm². It is first read off the
// same terms in lane order (tensor.SqDistLanes, several times faster); the
// serial chain runs only when lanesDecide cannot rule out a different verdict.
func updateValid(global, w nn.Weights, maxNorm float64) bool {
	if maxNorm <= 0 {
		return true
	}
	limit := maxNorm * maxNorm
	n := int(weightBytes(w) / 4)
	if valid, decided := lanesDecide(deltaSumSq(global, w, tensor.SqDistLanes), limit, n); decided {
		return valid
	}
	// A NaN or ±Inf element poisons ss. NaN fails any comparison; +Inf needs
	// its own test, because +Inf <= +Inf holds when limit is +Inf.
	ss := deltaSumSq(global, w, tensor.SqDist)
	return ss <= math.MaxFloat64 && ss <= limit
}

// deltaSumSq chains sum over every tensor of w against its counterpart in
// global, parameters then states.
func deltaSumSq(global, w nn.Weights, sum func(ss float64, a, b []float32) float64) float64 {
	var ss float64
	for i, p := range w.Params {
		ss = sum(ss, p.Data(), global.Params[i].Data())
	}
	for i, s := range w.States {
		ss = sum(ss, s.Data(), global.States[i].Data())
	}
	return ss
}

// lanesDecide reads the gate's verdict off ss, the n squared differences
// summed in another order than the serial chain's, and reports whether the
// serial sum is certain to give the same one (tensor.SqDistLanes has the two
// facts used). ss is NaN or +Inf iff the serial sum is: rejected either way.
// Otherwise both are finite, and limit = +Inf admits both. Otherwise they
// differ by less than 2γₙ/(1−γₙ) < 2.01·n·2⁻⁵³ of either, so with
// band = 8·n·2⁻⁵³·limit — four times that, against the three roundings in
// limit ± band — ss < limit−band puts the serial sum below limit and
// ss > limit+band above it. Anything else is undecided: ss within the band, or
// outside what the band is proven for — more than 2³⁰ elements (n·2⁻⁵³ must
// stay small) or a limit under 2⁻⁹⁰⁰ (the band must be a normal number).
func lanesDecide(ss, limit float64, n int) (valid, decided bool) {
	switch {
	case !(ss <= math.MaxFloat64):
		return false, true
	case math.IsInf(limit, 1):
		return true, true
	case n > 1<<30 || limit < 0x1p-900:
		return false, false
	}
	band := float64(n) * 0x1p-50 * limit
	return ss < limit, ss < limit-band || ss > limit+band
}

// corruptUpdate poisons a completed client update in place according to the
// drawn corruption mode, relative to the global weights it trained from:
// NaN and Inf plant a non-finite element in the first parameter tensor;
// Blowup scales the whole delta by 1e6, keeping values finite (modulo
// float32 overflow) but pushing the norm far beyond honest training.
func corruptUpdate(mode faults.Mode, global, w nn.Weights) {
	switch mode {
	case faults.NaN, faults.Inf:
		poison := float32(math.NaN())
		if mode == faults.Inf {
			poison = float32(math.Inf(1))
		}
		for _, p := range w.Params {
			if d := p.Data(); len(d) > 0 {
				d[0] = poison
				return
			}
		}
	case faults.Blowup:
		const factor = 1e6
		for i, p := range w.Params {
			g := global.Params[i].Data()
			d := p.Data()
			for j := range d {
				d[j] = g[j] + (d[j]-g[j])*factor
			}
		}
	}
}
