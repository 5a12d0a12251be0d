// Package nn is a compact, dependency-free neural-network training stack:
// layers with explicit forward/backward passes, losses, an SGD optimizer,
// and utilities for extracting and injecting flat parameter lists (the
// interface federated learning needs for model aggregation).
//
// Design notes:
//
//   - Layers are stateful: Forward caches whatever Backward needs, so a
//     Backward call must follow the matching Forward on the same layer
//     instance. A layer instance is therefore not safe for concurrent use;
//     build one network instance per worker goroutine.
//   - Parameter gradients are ACCUMULATED by Backward; SGD.Step zeroes them
//     after applying.
//   - Tensors are NCHW float32 throughout.
package nn

import (
	"fmt"

	"heteroswitch/internal/tensor"
)

// Param is one trainable tensor together with its gradient accumulator.
type Param struct {
	Name string
	W    *tensor.Tensor
	Grad *tensor.Tensor
}

// Layer is a differentiable network component.
type Layer interface {
	// Forward computes the layer output for input x. When train is true the
	// layer caches intermediates for Backward and uses training behaviour
	// (batch statistics).
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward consumes dL/d(output) and returns dL/d(input), accumulating
	// parameter gradients along the way.
	Backward(grad *tensor.Tensor) *tensor.Tensor
	// Params returns the layer's trainable parameters (possibly empty).
	Params() []*Param
	// States returns non-trained persistent tensors (e.g. BatchNorm running
	// statistics) that federated averaging should still aggregate.
	States() []*tensor.Tensor
	// Name returns a short human-readable layer description.
	Name() string
}

// Network is an ordered sequence of layers, the only composition primitive
// needed here (branching blocks are themselves Layers).
//
// Every network owns a tensor.Arena from which its layers draw per-batch
// output/gradient/scratch tensors; the arena is reset at the top of each
// Forward, so a batch's tensors (including the network output and the loss
// gradient) are valid until the next Forward on the same network. Callers
// that retain a Forward result across batches must Clone it. SetArena(nil)
// restores the legacy allocate-per-batch behaviour.
type Network struct {
	LayerList []Layer

	arena *tensor.Arena
	// intraOp is the frozen forward's conv-iteration parallelism budget,
	// granted via SetIntraOp.
	intraOp int
	// ownsArena is true when this network is the outermost owner of its
	// arena: it resets the arena per batch and detaches the final input
	// gradient from it. A network embedded as a layer of a larger model
	// adopts the parent's arena via SetArena and does neither.
	ownsArena bool
	// dxOut, keyed by gradient size, detaches Backward's return value from
	// the arena (callers like the gradient checker hold it across batches).
	dxOut map[int]*tensor.Tensor
	// frozen caches the compiled inference view built by Freeze; it shares
	// this network's arena and intra-op budget and is re-folded (not
	// recompiled) on every Freeze call.
	frozen *Frozen
}

// NewNetwork builds a network from the given layers with a fresh arena.
func NewNetwork(layers ...Layer) *Network {
	n := &Network{LayerList: layers}
	n.SetArena(tensor.NewArena())
	n.ownsArena = true
	return n
}

// SetArena attaches a (possibly nil) arena to the network and every layer
// that implements ArenaUser. The network becomes a non-owner: it no longer
// resets the arena per batch, which is what a parent network embedding this
// one as a layer relies on. SetArena(nil) disables arena recycling entirely
// (every layer falls back to tensor.New), which the equivalence tests use to
// A/B the arena against fresh allocation.
func (n *Network) SetArena(a *tensor.Arena) {
	n.arena = a
	n.ownsArena = false
	for _, l := range n.LayerList {
		if u, ok := l.(ArenaUser); ok {
			u.SetArena(a)
		}
	}
}

// SetIntraOp grants the network's frozen forward (Freeze) an intra-op
// parallelism budget: the maximum cores one conv's sample×group iterations
// (a depthwise conv's samples) may occupy (a batch-1 request runs on one
// core). Training never reads it — Forward and Backward run the serial
// kernels, and training parallelism is one model per worker. Freshly built
// networks default to budget 1, and any budget produces bit-identical frozen
// outputs (the iterations are partitioned deterministically; see
// internal/parallel), so a host running W networks side by side grants each
// parallel.Share of the machine.
func (n *Network) SetIntraOp(budget int) { n.intraOp = budget }

// Forward runs all layers in order. When the network owns its arena, the
// arena is reset first: the previous batch's tensors are recycled, so the
// returned output is valid only until the next Forward call.
func (n *Network) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if n.ownsArena && n.arena != nil {
		n.arena.Reset()
	}
	for _, l := range n.LayerList {
		x = l.Forward(x, train)
	}
	return x
}

// Backward runs the backward pass through all layers in reverse order and
// returns dL/d(network input). On an arena-owning network the returned
// gradient is copied into a small per-size cache so it survives later
// Forward passes (the arena buffer it came from is recycled on the next
// Forward) — but the cache is reused, so the result is only valid until the
// next Backward with a same-size gradient. Nested networks hand the arena
// tensor through untouched.
func (n *Network) Backward(grad *tensor.Tensor) *tensor.Tensor {
	for i := len(n.LayerList) - 1; i >= 0; i-- {
		grad = n.LayerList[i].Backward(grad)
	}
	if n.ownsArena && n.arena != nil {
		buf := n.dxOut[grad.Size()]
		if buf == nil || !buf.SameShape(grad) {
			buf = tensor.New(grad.Shape()...)
			if n.dxOut == nil {
				n.dxOut = make(map[int]*tensor.Tensor)
			}
			n.dxOut[grad.Size()] = buf
		}
		buf.CopyFrom(grad)
		return buf
	}
	return grad
}

// Params returns all trainable parameters in a stable order (layer order,
// then each layer's declared order). The order is the contract federated
// aggregation relies on.
func (n *Network) Params() []*Param {
	var out []*Param
	for _, l := range n.LayerList {
		out = append(out, l.Params()...)
	}
	return out
}

// States returns all persistent non-trained tensors in stable order.
func (n *Network) States() []*tensor.Tensor {
	var out []*tensor.Tensor
	for _, l := range n.LayerList {
		out = append(out, l.States()...)
	}
	return out
}

// NumParams returns the total number of trainable scalars.
func (n *Network) NumParams() int {
	total := 0
	for _, p := range n.Params() {
		total += p.W.Size()
	}
	return total
}

// Name describes the network briefly.
func (n *Network) Name() string {
	return fmt.Sprintf("Network(%d layers, %d params)", len(n.LayerList), n.NumParams())
}

// Snapshot deep-copies all parameters and states into a Weights value.
func (n *Network) Snapshot() Weights {
	ps := n.Params()
	ss := n.States()
	w := Weights{
		Params: make([]*tensor.Tensor, len(ps)),
		States: make([]*tensor.Tensor, len(ss)),
	}
	for i, p := range ps {
		w.Params[i] = p.W.Clone()
	}
	for i, s := range ss {
		w.States[i] = s.Clone()
	}
	return w
}

// SnapshotInto copies all parameters and states into w's existing tensors,
// avoiding the allocations of Snapshot. w must have been created from the
// same architecture (e.g. by Snapshot or Weights.Clone); any shape mismatch
// is an error and leaves w partially written.
func (n *Network) SnapshotInto(w Weights) error {
	ps := n.Params()
	ss := n.States()
	if len(ps) != len(w.Params) || len(ss) != len(w.States) {
		return fmt.Errorf("nn: snapshot buffer mismatch: have %d/%d tensors, network has %d/%d",
			len(w.Params), len(w.States), len(ps), len(ss))
	}
	for i, p := range ps {
		if p.W.Size() != w.Params[i].Size() {
			return fmt.Errorf("nn: snapshot param %d (%s) size %d != buffer %d", i, p.Name, p.W.Size(), w.Params[i].Size())
		}
		w.Params[i].CopyFrom(p.W)
	}
	for i, s := range ss {
		if s.Size() != w.States[i].Size() {
			return fmt.Errorf("nn: snapshot state %d size %d != buffer %d", i, s.Size(), w.States[i].Size())
		}
		w.States[i].CopyFrom(s)
	}
	return nil
}

// LoadWeights copies the given weights into the network's parameters and
// states. It returns an error on any shape mismatch.
func (n *Network) LoadWeights(w Weights) error {
	ps := n.Params()
	ss := n.States()
	if len(ps) != len(w.Params) || len(ss) != len(w.States) {
		return fmt.Errorf("nn: weight count mismatch: have %d/%d tensors, network wants %d/%d",
			len(w.Params), len(w.States), len(ps), len(ss))
	}
	for i, p := range ps {
		if p.W.Size() != w.Params[i].Size() {
			return fmt.Errorf("nn: param %d (%s) size %d != %d", i, p.Name, p.W.Size(), w.Params[i].Size())
		}
		p.W.CopyFrom(w.Params[i])
	}
	for i, s := range ss {
		if s.Size() != w.States[i].Size() {
			return fmt.Errorf("nn: state %d size %d != %d", i, s.Size(), w.States[i].Size())
		}
		s.CopyFrom(w.States[i])
	}
	return nil
}

// Weights is a detached snapshot of a network's parameters and states —
// the unit of exchange between federated clients and the server.
type Weights struct {
	Params []*tensor.Tensor
	States []*tensor.Tensor
}

// Clone deep-copies the weights.
func (w Weights) Clone() Weights {
	c := Weights{
		Params: make([]*tensor.Tensor, len(w.Params)),
		States: make([]*tensor.Tensor, len(w.States)),
	}
	for i, p := range w.Params {
		c.Params[i] = p.Clone()
	}
	for i, s := range w.States {
		c.States[i] = s.Clone()
	}
	return c
}

// CopyFrom copies o's values into w's existing tensors (params, then states).
// Both must come from the same architecture; a size mismatch panics.
func (w Weights) CopyFrom(o Weights) {
	for i, p := range o.Params {
		w.Params[i].CopyFrom(p)
	}
	for i, s := range o.States {
		w.States[i].CopyFrom(s)
	}
}

// Zero returns a zero-filled weight set with the same shapes as w.
func (w Weights) Zero() Weights {
	z := Weights{
		Params: make([]*tensor.Tensor, len(w.Params)),
		States: make([]*tensor.Tensor, len(w.States)),
	}
	for i, p := range w.Params {
		z.Params[i] = tensor.New(p.Shape()...)
	}
	for i, s := range w.States {
		z.States[i] = tensor.New(s.Shape()...)
	}
	return z
}

// Axpy computes w += a*x across all tensors (params and states).
func (w Weights) Axpy(a float32, x Weights) {
	for i, p := range w.Params {
		p.Axpy(a, x.Params[i])
	}
	for i, s := range w.States {
		s.Axpy(a, x.States[i])
	}
}

// Lerp computes w = (1-a)*w + a*x across all tensors.
func (w Weights) Lerp(a float32, x Weights) {
	for i, p := range w.Params {
		p.Lerp(a, x.Params[i])
	}
	for i, s := range w.States {
		s.Lerp(a, x.States[i])
	}
}

// Scale multiplies all tensors by a.
func (w Weights) Scale(a float32) {
	for _, p := range w.Params {
		p.Scale(a)
	}
	for _, s := range w.States {
		s.Scale(a)
	}
}

// Sub returns w - x as a new weight set (params and states).
func (w Weights) Sub(x Weights) Weights {
	d := w.Clone()
	d.Axpy(-1, x)
	return d
}

// L2DistSq returns the squared L2 distance between the PARAMETER tensors of
// w and x (states excluded), as used by the FedProx proximal term.
func (w Weights) L2DistSq(x Weights) float64 {
	var s float64
	for i, p := range w.Params {
		a, b := p.Data(), x.Params[i].Data()
		for j := range a {
			d := float64(a[j]) - float64(b[j])
			s += d * d
		}
	}
	return s
}
