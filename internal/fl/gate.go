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
)

// updateValid reports whether a client update passes the validation gate.
// The delta is the client's reported weights minus the global weights it
// trained from, over parameters and optimizer/BN states, accumulated in
// float64. maxNorm <= 0 disables the gate (always valid); otherwise a delta
// with a NaN or ±Inf element is rejected whatever the bound, and a finite one
// is rejected when its L2 norm exceeds maxNorm. maxNorm = +Inf therefore keeps
// only the non-finite check: it admits every finite delta and nothing else.
func updateValid(global, w nn.Weights, maxNorm float64) bool {
	if maxNorm <= 0 {
		return true
	}
	var ss float64
	for i, p := range w.Params {
		g := global.Params[i].Data()
		for j, v := range p.Data() {
			d := float64(v) - float64(g[j])
			ss += d * d
		}
	}
	for i, s := range w.States {
		g := global.States[i].Data()
		for j, v := range s.Data() {
			d := float64(v) - float64(g[j])
			ss += d * d
		}
	}
	// A NaN or ±Inf anywhere in the update poisons ss (squares of float32
	// differences cannot overflow float64 on their own). NaN fails any
	// comparison; +Inf needs its own test, because +Inf <= +Inf holds when
	// maxNorm (or its square) is +Inf.
	return ss <= math.MaxFloat64 && ss <= maxNorm*maxNorm
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
