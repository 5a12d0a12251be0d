package fl

import (
	"math"
	"sync"

	"heteroswitch/internal/nn"
)

// FedAvg is McMahan et al.'s federated averaging: plain local SGD and
// sample-weighted model averaging (streaming.go). The paper's baseline.
type FedAvg struct{}

// Name implements Strategy.
func (FedAvg) Name() string { return "FedAvg" }

// LocalUpdate implements Strategy.
func (FedAvg) LocalUpdate(ctx *ClientContext) ClientResult {
	init := EvalLoss(ctx.Net, ctx.Loss, ctx.Client.Data, ctx.Cfg.BatchSize)
	trainLoss := TrainLocal(ctx.Net, ctx.Client.Data, ctx.Cfg, ctx.Loss, ctx.RNG, nil, nil)
	return ClientResult{
		ClientID: ctx.Client.ID, DeviceIdx: ctx.Client.Device,
		NumSamples: ctx.Client.Data.Len(),
		Weights:    ctx.SnapshotWeights(),
		TrainLoss:  trainLoss, InitLoss: init,
	}
}

// FedProx (Li et al. 2020) adds a proximal term μ/2·||w - w_global||² to the
// local objective, pulling client updates toward the global model.
type FedProx struct {
	Mu float64
}

// Name implements Strategy.
func (p *FedProx) Name() string { return "FedProx" }

// LocalUpdate implements Strategy.
func (p *FedProx) LocalUpdate(ctx *ClientContext) ClientResult {
	init := EvalLoss(ctx.Net, ctx.Loss, ctx.Client.Data, ctx.Cfg.BatchSize)
	mu := float32(p.Mu)
	hook := func(ps []*nn.Param) {
		// grad += μ (w - w_global)
		for i, param := range ps {
			g, w, wg := param.Grad.Data(), param.W.Data(), ctx.Global.Params[i].Data()
			for j := range g {
				g[j] += mu * (w[j] - wg[j])
			}
		}
	}
	trainLoss := TrainLocal(ctx.Net, ctx.Client.Data, ctx.Cfg, ctx.Loss, ctx.RNG, hook, nil)
	return ClientResult{
		ClientID: ctx.Client.ID, DeviceIdx: ctx.Client.Device,
		NumSamples: ctx.Client.Data.Len(),
		Weights:    ctx.SnapshotWeights(),
		TrainLoss:  trainLoss, InitLoss: init,
	}
}

// QFedAvg implements q-FFL (Li et al. 2019): clients with higher loss get
// up-weighted updates, trading average accuracy for fairness. q=0 reduces to
// (unweighted) FedAvg.
//
//	Δ_k = (w_global - w_k)/η,  F_k = L_k + ε
//	w ← w_global - Σ_k F_k^q Δ_k / Σ_k (q F_k^{q-1} ||Δ_k||² + F_k^q/η)
//
// Numerator and denominator are both per-client sums normalized once, so the
// rule streams: the accumulator keeps Σ p_k·w_k with p_k = F_k^q (whence
// Σ_k F_k^q Δ_k = (Σp_k·w_global − Σ p_k·w_k)/η) and the scalar denominator.
// On the async engine a stale result folds as absolute weights against the
// window's global — Δ_k is measured from the model the window will update,
// not the older one the client trained from — exactly as FedAvg's stale
// folds already are.
type QFedAvg struct {
	Q float64
}

// Name implements Strategy.
func (q *QFedAvg) Name() string { return "q-FedAvg" }

// LocalUpdate implements Strategy: standard local SGD; the magic is in the
// accumulator.
func (q *QFedAvg) LocalUpdate(ctx *ClientContext) ClientResult {
	return FedAvg{}.LocalUpdate(ctx)
}

// NewAccumulator implements Strategy.
func (q *QFedAvg) NewAccumulator(global nn.Weights, cfg Config) Accumulator {
	return &qFedAvgAccumulator{
		fedAvgAccumulator: newFedAvgAccumulator(global),
		q:                 q.Q, lr: cfg.LR, global: global,
	}
}

// qFedAvgAccumulator reuses FedAvg's sums with q-FFL's weights: params holds
// Σ p_k·w_k with p_k = scale·F_k^q (its total is Σ p_k); states — BN
// statistics, not part of the q-FFL objective — average as FedAvg's do
// (weight scale·n_k) so inference stays calibrated.
type qFedAvgAccumulator struct {
	fedAvgAccumulator
	q, lr  float64
	global nn.Weights
	denom  float64 // Σ scale·(q F_k^{q-1} ||Δ_k||² + F_k^q/η)
}

// Fold implements Accumulator.
func (a *qFedAvgAccumulator) Fold(r ClientResult, scale float64) {
	if scale == 0 {
		return
	}
	const eps = 1e-10
	f := r.InitLoss + eps
	fq := math.Pow(f, a.q)
	a.params.add(r.Weights.Params, scale*fq)
	a.states.add(r.Weights.States, scale*float64(r.NumSamples))
	normSq := a.global.L2DistSq(r.Weights) / (a.lr * a.lr) // ||Δ_k||²
	a.denom += scale * (a.q*math.Pow(f, a.q-1)*normSq + fq/a.lr)
}

// FinalizeInto implements Accumulator. Every denominator term is at least
// F_k^q/η > 0 for Q ≥ 0 and finite non-negative losses, so a non-positive
// denominator means nothing was folded (or a negative Q overshot); either
// way the round has no usable step and the global is kept.
func (a *qFedAvgAccumulator) FinalizeInto(dst nn.Weights) bool {
	if a.denom <= 0 {
		return false
	}
	a.params.mustMatch(dst.Params)
	step, p := 1/(a.lr*a.denom), a.params.total
	for i, sum := range a.params.sums {
		g, d := a.global.Params[i].Data(), dst.Params[i].Data()
		for j, v := range sum {
			gj := float64(g[j])
			d[j] = float32(gj - (p*gj-v)*step)
		}
	}
	a.states.meanInto(dst.States)
	return true
}

// Reset implements Accumulator.
func (a *qFedAvgAccumulator) Reset(global nn.Weights) {
	a.fedAvgAccumulator.Reset(global)
	a.global, a.denom = global, 0
}

// Scaffold implements SCAFFOLD (Karimireddy et al. 2020): client and server
// control variates correct the client drift caused by non-IID data.
type Scaffold struct {
	// TotalClients is N, used in the server control-variate update.
	TotalClients int

	mu      sync.Mutex
	c       nn.Weights         // server control variate
	clients map[int]nn.Weights // per-client control variates c_k
	// pending holds what LocalUpdate computed but the server has not yet
	// admitted: the accumulator's Fold — the only place an admitted result
	// reaches — commits it, so an update the validation gate rejects never
	// touches c_k or c.
	pending map[int]scaffoldUpdate
}

// scaffoldUpdate is one client's staged control-variate step.
type scaffoldUpdate struct {
	ck  nn.Weights // new c_k
	dck nn.Weights // Δc_k = new c_k − old c_k
}

// Name implements Strategy.
func (s *Scaffold) Name() string { return "Scaffold" }

func (s *Scaffold) ensure(global nn.Weights, clientID int) (c, ck nn.Weights) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.clients == nil {
		s.clients = map[int]nn.Weights{}
		s.pending = map[int]scaffoldUpdate{}
	}
	if s.c.Params == nil {
		s.c = global.Zero()
	}
	ck, ok := s.clients[clientID]
	if !ok {
		ck = global.Zero()
		s.clients[clientID] = ck
	}
	return s.c.Clone(), ck.Clone()
}

// LocalUpdate implements Strategy. Local steps use w ← w - η(g - c_k + c);
// afterwards c_k ← c_k - c + (w_global - w_local)/(Sη), staged until the
// result is folded.
func (s *Scaffold) LocalUpdate(ctx *ClientContext) ClientResult {
	c, ck := s.ensure(ctx.Global, ctx.Client.ID)
	init := EvalLoss(ctx.Net, ctx.Loss, ctx.Client.Data, ctx.Cfg.BatchSize)
	steps := 0
	hook := func(ps []*nn.Param) {
		for i, param := range ps {
			g, cd, ckd := param.Grad.Data(), c.Params[i].Data(), ck.Params[i].Data()
			for j := range g {
				g[j] += cd[j] - ckd[j]
			}
		}
		steps++
	}
	trainLoss := TrainLocal(ctx.Net, ctx.Client.Data, ctx.Cfg, ctx.Loss, ctx.RNG, hook, nil)
	w := ctx.SnapshotWeights()

	if steps > 0 {
		// c_k_new = c_k - c + (w_global - w_local)/(S·η)
		ckNew := ck.Clone()
		ckNew.Axpy(-1, c)
		drift := ctx.Global.Sub(w)
		drift.Scale(float32(1.0 / (float64(steps) * ctx.Cfg.LR)))
		for i := range ckNew.Params {
			ckNew.Params[i].AddInPlace(drift.Params[i])
		}
		dck := ckNew.Clone()
		dck.Axpy(-1, ck)
		s.mu.Lock()
		s.pending[ctx.Client.ID] = scaffoldUpdate{ck: ckNew, dck: dck}
		s.mu.Unlock()
	}
	return ClientResult{
		ClientID: ctx.Client.ID, DeviceIdx: ctx.Client.Device,
		NumSamples: ctx.Client.Data.Len(),
		Weights:    w,
		TrainLoss:  trainLoss, InitLoss: init,
	}
}

// NewAccumulator implements Strategy.
func (s *Scaffold) NewAccumulator(global nn.Weights, cfg Config) Accumulator {
	return &scaffoldAccumulator{
		fedAvgAccumulator: newFedAvgAccumulator(global),
		s:                 s,
		dc:                newWeightedSum(global.Params),
	}
}

// scaffoldAccumulator averages client models as FedAvg does and advances the
// server control variate by (1/N) Σ scale·Δc_k over the folded clients.
type scaffoldAccumulator struct {
	fedAvgAccumulator
	s      *Scaffold
	dc     weightedSum // Σ scale·Δc_k
	folded int
}

// Fold implements Accumulator: the client's staged control-variate step is
// committed with its model, or discarded with it at scale 0.
func (a *scaffoldAccumulator) Fold(r ClientResult, scale float64) {
	s := a.s
	s.mu.Lock()
	up, staged := s.pending[r.ClientID]
	delete(s.pending, r.ClientID)
	if staged && scale != 0 {
		s.clients[r.ClientID] = up.ck
	}
	s.mu.Unlock()
	if scale == 0 {
		return
	}
	a.fedAvgAccumulator.Fold(r, scale)
	a.folded++
	if staged {
		a.dc.add(up.dck.Params, scale)
	}
}

// FinalizeInto implements Accumulator. Whatever is still staged by now
// belongs to results the round never folded (the gate rejected them); it is
// dropped, so a rejected update leaves no trace.
func (a *scaffoldAccumulator) FinalizeInto(dst nn.Weights) bool {
	ok := a.fedAvgAccumulator.FinalizeInto(dst)
	s := a.s
	s.mu.Lock()
	defer s.mu.Unlock()
	clear(s.pending)
	if !ok || s.c.Params == nil {
		return ok
	}
	n := s.TotalClients
	if n <= 0 {
		n = a.folded
	}
	inv := 1 / float64(n)
	for i, sum := range a.dc.sums {
		d := s.c.Params[i].Data()
		for j, v := range sum {
			d[j] += float32(v * inv)
		}
	}
	return true
}

// Reset implements Accumulator.
func (a *scaffoldAccumulator) Reset(global nn.Weights) {
	a.fedAvgAccumulator.Reset(global)
	a.dc.reset()
	a.folded = 0
}
