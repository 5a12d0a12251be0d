package core

import (
	"math"
	"sync"

	"heteroswitch/internal/fl"
	"heteroswitch/internal/nn"
)

// Mode selects how much of Algorithm 1 is active, matching the ablation rows
// of Table 4.
type Mode int

// Operating modes.
const (
	// ModeFull is HeteroSwitch proper: bias-gated transformation (Switch 1)
	// and loss-gated SWAD adoption (Switch 2).
	ModeFull Mode = iota
	// ModeTransformOnly always applies the ISP transformation and never uses
	// SWAD (Table 4's "ISP Transformation" row).
	ModeTransformOnly
	// ModeTransformSWAD always applies the transformation AND always returns
	// the SWAD average (Table 4's "+ SWAD" row) — the one-size-fits-all
	// variant HeteroSwitch improves upon.
	ModeTransformSWAD
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeTransformOnly:
		return "ISP-Transformation"
	case ModeTransformSWAD:
		return "ISP+SWAD"
	default:
		return "HeteroSwitch"
	}
}

// HeteroSwitch is the paper's selective generalization strategy. It
// implements fl.Strategy; the server side is FedAvg aggregation plus the
// L_EMA tracking of eq. 1.
type HeteroSwitch struct {
	// Mode selects full switching or an always-on ablation.
	Mode Mode
	// Alpha is the EMA smoothing factor of eq. 1 (paper: 0.9).
	Alpha float64
	// Transform perturbs one sample tensor; New sets RandomWBGamma with the
	// appendix's tuned degrees (WB 0.001, gamma 0.9), its one source.
	Transform TransformFunc

	mu      sync.Mutex
	lema    float64
	hasLEMA bool
}

// New returns HeteroSwitch in full switching mode with the paper's tuned
// hyperparameters.
func New() *HeteroSwitch {
	return &HeteroSwitch{
		Mode:      ModeFull,
		Alpha:     0.9,
		Transform: RandomWBGamma(0.001, 0.9),
	}
}

// NewWithMode returns the requested ablation variant with default
// hyperparameters.
func NewWithMode(m Mode) *HeteroSwitch {
	h := New()
	h.Mode = m
	return h
}

// Name implements fl.Strategy.
func (h *HeteroSwitch) Name() string { return h.Mode.String() }

// LEMA returns the current EMA of the aggregated train loss and whether it
// has been initialized (it is undefined until the first aggregation).
func (h *HeteroSwitch) LEMA() (float64, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.lema, h.hasLEMA
}

// LocalUpdate implements Algorithm 1 (ClientUpdate).
func (h *HeteroSwitch) LocalUpdate(ctx *fl.ClientContext) fl.ClientResult {
	lema, hasLEMA := h.LEMA()

	// Line 2: L_init = L(D, W).
	initLoss := fl.EvalLoss(ctx.Net, ctx.Loss, ctx.Client.Data, ctx.Cfg.BatchSize)

	// Lines 3-5: Switch 1 — the global model already fits this data better
	// than the population average, so the data is likely (system-)biased.
	var switch1 bool
	switch h.Mode {
	case ModeTransformOnly, ModeTransformSWAD:
		switch1 = true
	default:
		switch1 = hasLEMA && initLoss < lema
	}

	// Lines 6-8: random ISP transformation on the client's data.
	data := ctx.Client.Data
	if switch1 {
		data = TransformDataset(data, h.Transform, ctx.RNG)
	}

	// Lines 9-21: local SGD; when Switch 1 is on, maintain the per-batch
	// weight average W_SWA (SWAD — denser than SWA's per-epoch averaging).
	useSWAD := switch1 && h.Mode != ModeTransformOnly
	var swa, batchBuf nn.Weights
	var batchHook fl.BatchHook
	if useSWAD {
		swa = ctx.Net.Snapshot() // line 10: initialize W_SWA as a copy of W
		// Per-batch snapshot buffer: the server's per-worker scratch is free
		// until SnapshotWeights (after training), so alias it instead of
		// allocating a full model copy per SWAD client.
		if ctx.Scratch != nil {
			batchBuf = *ctx.Scratch
		} else {
			batchBuf = ctx.Net.Snapshot()
		}
		batchHook = func(net *nn.Network, batchIdx int) {
			// Line 17: W_SWA ← (W_SWA·Idx_b + W) / (Idx_b + 1)
			if err := net.SnapshotInto(batchBuf); err != nil {
				panic("core: SWAD snapshot buffer: " + err.Error())
			}
			swa.Lerp(float32(1.0/float64(batchIdx+1)), batchBuf)
		}
	}
	trainLoss := fl.TrainLocal(ctx.Net, data, ctx.Cfg, ctx.Loss, ctx.RNG, nil, batchHook)

	// Lines 22-29: Switch 2 — adopt the averaged weights only if training
	// still tracks below the population EMA.
	var switch2 bool
	switch h.Mode {
	case ModeTransformSWAD:
		switch2 = true
	case ModeTransformOnly:
		switch2 = false
	default:
		switch2 = switch1 && hasLEMA && trainLoss < lema
	}

	var weights nn.Weights
	if switch2 && useSWAD {
		weights = swa
	} else {
		weights = ctx.SnapshotWeights()
	}
	return fl.ClientResult{
		ClientID: ctx.Client.ID, DeviceIdx: ctx.Client.Device,
		NumSamples: ctx.Client.Data.Len(),
		Weights:    weights,
		TrainLoss:  trainLoss, InitLoss: initLoss,
	}
}

// updateLEMA advances the eq. 1 EMA with the round's sample-weighted mean
// train loss (NaN/Inf rounds are skipped so a diverged client cannot poison
// the switching signal).
func (h *HeteroSwitch) updateLEMA(lcur float64) {
	if math.IsNaN(lcur) || math.IsInf(lcur, 0) {
		return
	}
	h.mu.Lock()
	if h.hasLEMA {
		h.lema = h.Alpha*lcur + (1-h.Alpha)*h.lema // eq. 1
	} else {
		h.lema = lcur
		h.hasLEMA = true
	}
	h.mu.Unlock()
}

// accumulator is HeteroSwitch's server side: the weight fold is FedAvg's, and
// the eq. 1 inputs (Σ L_train·n, Σ n) fold per-result alongside it.
type accumulator struct {
	weights fl.Accumulator
	h       *HeteroSwitch
	lossSum float64 // Σ L_train,k · n_k over this window
	total   float64 // Σ n_k over this window
}

// NewAccumulator implements fl.Strategy.
func (h *HeteroSwitch) NewAccumulator(global nn.Weights, cfg fl.Config) fl.Accumulator {
	return &accumulator{weights: fl.FedAvg{}.NewAccumulator(global, cfg), h: h}
}

// Reset implements fl.Accumulator.
func (a *accumulator) Reset(global nn.Weights) {
	a.weights.Reset(global)
	a.lossSum = 0
	a.total = 0
}

// Fold implements fl.Accumulator: the staleness discount scales the FedAvg
// weight fold AND the eq. 1 loss inputs, so a stale client influences the
// switching signal exactly as much as it influences the model.
func (a *accumulator) Fold(r fl.ClientResult, scale float64) {
	a.weights.Fold(r, scale)
	if scale == 0 {
		return // contributes nothing; keeps 0·Inf off the L_EMA sums too
	}
	n := scale * float64(r.NumSamples)
	a.lossSum += r.TrainLoss * n
	a.total += n
}

// FinalizeInto implements fl.Accumulator: FedAvg's average plus the eq. 1
// EMA update over the round's sample-weighted mean train loss.
func (a *accumulator) FinalizeInto(dst nn.Weights) bool {
	ok := a.weights.FinalizeInto(dst)
	if a.total > 0 {
		a.h.updateLEMA(a.lossSum / a.total)
	}
	return ok
}

var _ fl.Strategy = (*HeteroSwitch)(nil)
