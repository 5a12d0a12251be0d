package nn

import (
	"fmt"
	"math"

	"heteroswitch/internal/tensor"
	"heteroswitch/internal/vec"
)

// Frozen is a compiled inference-only view of a Network: the layer list is
// flattened (nested Networks inline), every BatchNorm2D that directly
// follows a Conv2D is folded into the conv's weights and bias (using the
// RUNNING statistics, so no batch reduction runs at all), and the activation
// that follows a matmul layer is fused into the kernel's store with the
// bias. An op exists only to fold, fuse or recurse: a conv or dense layer with
// what it absorbs, a residual's plain sum, a Parallel or squeeze-excite block
// over frozen children. Every other layer runs its own
// Forward(x, false), and no eval forward writes a buffer for a backward pass,
// so the frozen forward touches strictly less memory than
// Network.Forward(x, false).
//
// A frozen view shares its source network's arena and intra-op budget like
// any layer: Infer resets the arena exactly like Network.Forward (outputs
// are valid until the next Forward/Infer on the same network). The budget
// splits one loop: each conv's sample×group iterations (a depthwise conv's
// samples), across internal/parallel's pool. Every other op, and every
// matmul inside a conv iteration, runs on the calling goroutine, so a
// batch-1 request through a one-group or depthwise conv runs on one core.
// Like Network, a Frozen is not safe for concurrent use; freeze one replica
// per goroutine.
//
// Numerical contract: BN folding reorders float operations, so a frozen
// forward matches the reference eval forward to a small tolerance (≤ 1e-5
// max-abs on the test fixtures) rather than bit-exactly; networks without
// folded BN (pure fusion) are bit-identical. At a FIXED weight state the
// frozen forward is itself bit-identical across intra-op budgets, because
// each conv iteration is computed whole by one goroutine.
type Frozen struct {
	net *Network
	ops []frozenOp
}

// frozenOp is one step of the compiled inference program.
type frozenOp interface {
	infer(f *Frozen, x *tensor.Tensor) *tensor.Tensor
}

// refolder is implemented by ops that cache weights derived from trainable
// parameters (the conv and dense ops) and by composites that contain such
// ops. Freeze re-runs refold on every call so a cached Frozen always
// reflects the network's current weights.
type refolder interface {
	refold()
}

// Freeze returns the network's cached inference view, compiling it on first
// use and re-folding the BatchNorm weights on every call so the view tracks
// the current parameters. The architecture must not change after the first
// Freeze (layers are compiled once); weights may change freely between
// calls. Typical use: freeze once per evaluation pass, run every batch
// through the frozen view. Every matmul op refreshes its own packed-weight
// handle in the refold.
func (n *Network) Freeze() *Frozen {
	if n.frozen == nil {
		n.frozen = &Frozen{net: n, ops: compile(flattenLayers(n.LayerList, nil))}
	}
	refoldOps(n.frozen.ops)
	return n.frozen
}

// Infer runs the compiled inference program. When the network owns its
// arena, the arena is reset first — identical lifetime contract to
// Network.Forward: the returned tensor is valid until the next Forward or
// Infer on this network.
func (f *Frozen) Infer(x *tensor.Tensor) *tensor.Tensor {
	if f.net.ownsArena && f.net.arena != nil {
		f.net.arena.Reset()
	}
	return runOps(f, f.ops, x)
}

// alloc returns an uninitialized per-batch tensor from the shared arena
// (tensor.New without an arena), mirroring arenaScratch.allocUninit.
func (f *Frozen) alloc(shape ...int) *tensor.Tensor {
	if a := f.net.arena; a != nil {
		return a.GetUninit(shape...)
	}
	return tensor.New(shape...)
}

// budget returns the network's intra-op budget (at least 1).
func (f *Frozen) budget() int {
	if f.net.intraOp < 1 {
		return 1
	}
	return f.net.intraOp
}

// runOps threads x through a compiled op sequence.
func runOps(f *Frozen, ops []frozenOp, x *tensor.Tensor) *tensor.Tensor {
	for _, op := range ops {
		x = op.infer(f, x)
	}
	return x
}

// refoldOps re-derives every cached folded weight in an op sequence and
// refreshes the ops' packed-weight handles.
func refoldOps(ops []frozenOp) {
	for _, op := range ops {
		if r, ok := op.(refolder); ok {
			r.refold()
		}
	}
}

// Inference is the forward-only surface shared by *Network and *Frozen —
// what evaluation loops (metrics, fl.EvalLoss, the experiment sweeps)
// consume, so one loop serves both the fused path and the reference forward
// the tests hold it against.
type Inference interface {
	Infer(x *tensor.Tensor) *tensor.Tensor
}

// Infer implements Inference as the reference eval forward.
func (n *Network) Infer(x *tensor.Tensor) *tensor.Tensor { return n.Forward(x, false) }

// Compilation -----------------------------------------------------------------

// flattenLayers expands nested *Network layers into one linear sequence, so
// conv→BN→activation runs fold even when they straddle a sub-network
// boundary (convBNAct builds exactly that shape).
func flattenLayers(layers []Layer, out []Layer) []Layer {
	for _, l := range layers {
		if sub, ok := l.(*Network); ok {
			out = flattenLayers(sub.LayerList, out)
			continue
		}
		out = append(out, l)
	}
	return out
}

// absorb returns what the matmul layer at flat[i] takes into its frozen op
// and the index of the last layer it takes: a conv (conv non-nil) folds a
// following BatchNorm2D and takes that batch norm's activation; then, while
// the activation is still the identity, a conv or a dense takes a following
// ReLU layer.
func absorb(flat []Layer, i int, conv *Conv2D) (bn *BatchNorm2D, act vec.Act, last int) {
	next := func() Layer {
		if i+1 < len(flat) {
			return flat[i+1]
		}
		return nil
	}
	if b, ok := next().(*BatchNorm2D); ok && conv != nil {
		if b.C != conv.OutC {
			panic(fmt.Sprintf("nn: Freeze: BatchNorm2D(%d) cannot fold into %s", b.C, conv.Name()))
		}
		bn, act = b, b.act
		i++
	}
	if _, ok := next().(*ReLU); ok && act == vec.ActIdentity {
		act = vec.ActReLU
		i++
	}
	return bn, act, i
}

// compile turns a flattened layer sequence into the inference program,
// folding BN and fusing activations as it scans.
func compile(flat []Layer) []frozenOp {
	var ops []frozenOp
	for i := 0; i < len(flat); i++ {
		switch l := flat[i].(type) {
		case *Conv2D:
			op := &frozenConv{l: l}
			op.bn, op.act, i = absorb(flat, i, l)
			op.build()
			ops = append(ops, op)
		case *Dense:
			op := &frozenDense{l: l}
			_, op.act, i = absorb(flat, i, nil)
			ops = append(ops, op)
		case *SEBlock:
			ops = append(ops, &frozenSE{se: l, fc1: &frozenDense{l: l.fc1, act: vec.ActReLU}, fc2: &frozenDense{l: l.fc2}})
		case *Residual:
			ops = append(ops, &frozenResidual{body: compileLayer(l.Body), proj: compileLayer(l.Proj)})
		case *Parallel:
			op := &frozenParallel{l: l}
			for _, b := range l.Branches {
				op.branches = append(op.branches, compileLayer(b))
			}
			op.outCs = make([]int, len(l.Branches))
			op.outs = make([]*tensor.Tensor, len(l.Branches))
			ops = append(ops, op)
		case *Identity:
			// Compiles to nothing.
		default:
			// Nothing to fold, fuse or recurse into — view and permutation
			// layers, pooling, a BatchNorm2D no conv precedes (after a Dense
			// it panics, as the reference forward does) and a ReLU no
			// matmul layer absorbs — so no op of its own: the layer's eval
			// forward is the op.
			ops = append(ops, &frozenWrap{l: l})
		}
	}
	return ops
}

// compileLayer freezes a single composite child (which may itself be a
// Network, a composite block, or a bare layer).
func compileLayer(l Layer) []frozenOp {
	return compile(flattenLayers([]Layer{l}, nil))
}

// BN folding math -------------------------------------------------------------

// bnScaleShift returns the per-channel affine form of a BatchNorm eval pass
// on the running statistics: y = scale·x + shift with
// scale = γ/√(var+ε), shift = β − scale·mean.
func bnScaleShift(bn *BatchNorm2D, c int) (scale, shift float32) {
	s := float32(float64(bn.Gamma.W.Data()[c]) / math.Sqrt(float64(bn.RunVar.Data()[c])+bn.Eps))
	return s, bn.Beta.W.Data()[c] - s*bn.RunMean.Data()[c]
}
