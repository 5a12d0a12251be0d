package nn

import (
	"fmt"

	"heteroswitch/internal/frand"
	"heteroswitch/internal/tensor"
)

// Identity passes its input through unchanged. Useful as the pass-through
// branch of Parallel blocks.
type Identity struct{}

// NewIdentity returns an identity layer.
func NewIdentity() *Identity { return &Identity{} }

// Forward implements Layer.
func (l *Identity) Forward(x *tensor.Tensor, train bool) *tensor.Tensor { return x }

// Backward implements Layer.
func (l *Identity) Backward(grad *tensor.Tensor) *tensor.Tensor { return grad }

// Params implements Layer.
func (l *Identity) Params() []*Param { return nil }

// States implements Layer.
func (l *Identity) States() []*tensor.Tensor { return nil }

// Name implements Layer.
func (l *Identity) Name() string { return "Identity" }

// Residual computes y = Body(x) + Proj(x). Proj defaults to identity when
// nil; supply a 1x1 conv (+BN) projection when the body changes shape.
type Residual struct {
	arenaScratch
	Body Layer
	Proj Layer
}

// NewResidual builds a residual block.
func NewResidual(body, proj Layer) *Residual {
	if proj == nil {
		proj = NewIdentity()
	}
	return &Residual{Body: body, Proj: proj}
}

// SetArena implements ArenaUser, sharing the arena with both branches.
func (l *Residual) SetArena(a *tensor.Arena) {
	l.arenaScratch.SetArena(a)
	if u, ok := l.Body.(ArenaUser); ok {
		u.SetArena(a)
	}
	if u, ok := l.Proj.(ArenaUser); ok {
		u.SetArena(a)
	}
}

// Forward implements Layer.
func (l *Residual) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	y := l.Body.Forward(x, train)
	s := l.Proj.Forward(x, train)
	if !y.SameShape(s) {
		panic(fmt.Sprintf("nn: Residual shape mismatch %v vs %v", y.Shape(), s.Shape()))
	}
	out := l.allocUninit(y.Shape()...)
	out.CopyFrom(y)
	out.AddInPlace(s)
	return out
}

// Backward implements Layer.
func (l *Residual) Backward(grad *tensor.Tensor) *tensor.Tensor {
	dx := l.Body.Backward(grad)
	ds := l.Proj.Backward(grad)
	out := l.allocUninit(dx.Shape()...)
	out.CopyFrom(dx)
	out.AddInPlace(ds)
	return out
}

// Params implements Layer.
func (l *Residual) Params() []*Param { return append(l.Body.Params(), l.Proj.Params()...) }

// States implements Layer.
func (l *Residual) States() []*tensor.Tensor { return append(l.Body.States(), l.Proj.States()...) }

// Name implements Layer.
func (l *Residual) Name() string { return "Residual(" + l.Body.Name() + ")" }

// Parallel runs branches side by side and concatenates their outputs along
// the channel dimension.
//
// With SplitInput=false every branch receives the full input (SqueezeNet
// fire expansion). With SplitInput=true the input channels are divided
// evenly among the branches (ShuffleNetV2 basic unit).
type Parallel struct {
	arenaScratch
	Branches   []Layer
	SplitInput bool
	inC        int
	outCs      []int
	// per-batch work lists, cached to keep steady-state batches allocation-free
	inputs, outs, grads, dxs []*tensor.Tensor
}

// NewParallel builds a parallel block. The cached per-batch work lists are
// sized lazily on first Forward (see ensureWorkLists).
func NewParallel(splitInput bool, branches ...Layer) *Parallel {
	return &Parallel{Branches: branches, SplitInput: splitInput}
}

// SetArena implements ArenaUser, sharing the arena with every branch.
func (l *Parallel) SetArena(a *tensor.Arena) {
	l.arenaScratch.SetArena(a)
	for _, b := range l.Branches {
		if u, ok := b.(ArenaUser); ok {
			u.SetArena(a)
		}
	}
}

// ensureWorkLists sizes the cached per-batch slices, so a Parallel built as
// a struct literal (bypassing NewParallel) still works.
func (l *Parallel) ensureWorkLists() {
	nb := len(l.Branches)
	if len(l.inputs) != nb {
		l.outCs = make([]int, nb)
		l.inputs = make([]*tensor.Tensor, nb)
		l.outs = make([]*tensor.Tensor, nb)
		l.grads = make([]*tensor.Tensor, nb)
		l.dxs = make([]*tensor.Tensor, nb)
	}
}

// Forward implements Layer.
func (l *Parallel) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	l.ensureWorkLists()
	n, c := x.Dim(0), x.Dim(1)
	l.inC = c
	nb := len(l.Branches)
	if l.SplitInput {
		if c%nb != 0 {
			panic(fmt.Sprintf("nn: Parallel split %d channels across %d branches", c, nb))
		}
		per := c / nb
		for i := range l.inputs {
			l.inputs[i] = l.sliceChannels(x, i*per, (i+1)*per)
		}
	} else {
		for i := range l.inputs {
			l.inputs[i] = x
		}
	}
	totalC := 0
	for i, b := range l.Branches {
		l.outs[i] = b.Forward(l.inputs[i], train)
		l.outCs[i] = l.outs[i].Dim(1)
		totalC += l.outCs[i]
	}
	oh, ow := l.outs[0].Dim(2), l.outs[0].Dim(3)
	out := l.allocUninit(n, totalC, oh, ow)
	at := 0
	for _, o := range l.outs {
		if o.Dim(2) != oh || o.Dim(3) != ow {
			panic("nn: Parallel branches disagree on spatial size")
		}
		copyChannels(out, o, at)
		at += o.Dim(1)
	}
	return out
}

// Backward implements Layer.
func (l *Parallel) Backward(grad *tensor.Tensor) *tensor.Tensor {
	n := grad.Dim(0)
	nb := len(l.Branches)
	at := 0
	for i := range l.Branches {
		l.grads[i] = l.sliceChannels(grad, at, at+l.outCs[i])
		at += l.outCs[i]
	}
	if l.SplitInput {
		per := l.inC / nb
		var h, w int
		for i, b := range l.Branches {
			l.dxs[i] = b.Backward(l.grads[i])
			h, w = l.dxs[i].Dim(2), l.dxs[i].Dim(3)
		}
		dx := l.allocUninit(n, l.inC, h, w)
		for i, d := range l.dxs {
			copyChannels(dx, d, i*per)
		}
		return dx
	}
	var dx *tensor.Tensor
	for i, b := range l.Branches {
		d := b.Backward(l.grads[i])
		if dx == nil {
			dx = l.allocUninit(d.Shape()...)
			dx.CopyFrom(d)
		} else {
			dx.AddInPlace(d)
		}
	}
	return dx
}

// Params implements Layer.
func (l *Parallel) Params() []*Param {
	var out []*Param
	for _, b := range l.Branches {
		out = append(out, b.Params()...)
	}
	return out
}

// States implements Layer.
func (l *Parallel) States() []*tensor.Tensor {
	var out []*tensor.Tensor
	for _, b := range l.Branches {
		out = append(out, b.States()...)
	}
	return out
}

// Name implements Layer.
func (l *Parallel) Name() string { return fmt.Sprintf("Parallel(%d branches)", len(l.Branches)) }

// sliceChannels copies channels [lo,hi) of an NCHW tensor into a per-batch
// tensor.
func (l *Parallel) sliceChannels(x *tensor.Tensor, lo, hi int) *tensor.Tensor {
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	out := l.allocUninit(n, hi-lo, h, w)
	hw := h * w
	xd, od := x.Data(), out.Data()
	per := hi - lo
	for i := 0; i < n; i++ {
		src := xd[(i*c+lo)*hw : (i*c+hi)*hw]
		dst := od[i*per*hw : (i+1)*per*hw]
		copy(dst, src)
	}
	return out
}

// copyChannels writes src into dst starting at channel offset `at`.
func copyChannels(dst, src *tensor.Tensor, at int) {
	n, dc, h, w := dst.Dim(0), dst.Dim(1), dst.Dim(2), dst.Dim(3)
	sc := src.Dim(1)
	hw := h * w
	dd, sd := dst.Data(), src.Data()
	for i := 0; i < n; i++ {
		copy(dd[(i*dc+at)*hw:(i*dc+at+sc)*hw], sd[i*sc*hw:(i+1)*sc*hw])
	}
}

// SEBlock is a squeeze-and-excitation channel attention block:
// s = GlobalAvgPool(x); z = hsig(W2·relu(W1·s)); y = x ⊙ z (per channel).
type SEBlock struct {
	arenaScratch
	C, Hidden int
	fc1, fc2  *Dense
	relu      *ReLU
	hsig      *HardSigmoid
	x         *tensor.Tensor
	z         *tensor.Tensor
}

// NewSEBlock builds a squeeze-excite block with the given reduction hidden
// width (typically C/4).
func NewSEBlock(r *frand.RNG, c, hidden int) *SEBlock {
	return &SEBlock{
		C: c, Hidden: hidden,
		fc1:  NewDense(r, c, hidden),
		fc2:  NewDense(r, hidden, c),
		relu: NewReLU(),
		hsig: NewHardSigmoid(),
	}
}

// SetArena implements ArenaUser, sharing the arena with the excitation MLP.
func (l *SEBlock) SetArena(a *tensor.Arena) {
	l.arenaScratch.SetArena(a)
	l.fc1.SetArena(a)
	l.fc2.SetArena(a)
	l.relu.SetArena(a)
	l.hsig.SetArena(a)
}

// Forward implements Layer.
func (l *SEBlock) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	if c != l.C {
		panic(fmt.Sprintf("nn: SEBlock channels %d, want %d", c, l.C))
	}
	l.x = x
	hw := h * w
	s := l.allocUninit(n, c)
	planeMean(s.Data(), x.Data(), hw)
	z := l.hsig.Forward(l.fc2.Forward(l.relu.Forward(l.fc1.Forward(s, train), train), train), train)
	l.z = z
	out := l.allocUninit(n, c, h, w)
	scaleRows(out.Data(), x.Data(), z.Data(), hw)
	return out
}

// Backward implements Layer.
func (l *SEBlock) Backward(grad *tensor.Tensor) *tensor.Tensor {
	hw := l.x.Dim(2) * l.x.Dim(3)
	gd := grad.Data()

	// dz[n,c] = Σ_hw dy·x ;  dx (direct path) = dy·z
	dz := l.allocUninit(l.z.Shape()...)
	planeDot(dz.Data(), gd, l.x.Data(), hw)
	dx := l.allocUninit(l.x.Shape()...)
	dxd := dx.Data()
	scaleRows(dxd, gd, l.z.Data(), hw)
	// Backprop dz through the excitation MLP to ds [n,c], then add its share
	// of the squeeze's mean to every position of its plane.
	ds := l.fc1.Backward(l.relu.Backward(l.fc2.Backward(l.hsig.Backward(dz))))
	inv := 1 / float32(hw)
	for i, g := range ds.Data() {
		tensor.BiasAct(dxd[i*hw:(i+1)*hw], g*inv, false)
	}
	return dx
}

// Params implements Layer.
func (l *SEBlock) Params() []*Param { return append(l.fc1.Params(), l.fc2.Params()...) }

// States implements Layer.
func (l *SEBlock) States() []*tensor.Tensor { return nil }

// Name implements Layer.
func (l *SEBlock) Name() string { return fmt.Sprintf("SEBlock(%d,%d)", l.C, l.Hidden) }
