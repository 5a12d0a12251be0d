package nn

import (
	"fmt"

	"heteroswitch/internal/parallel"
	"heteroswitch/internal/tensor"
	"heteroswitch/internal/vec"
)

// epAct identifies the activation fused into a kernel epilogue (or applied
// by a standalone frozenAct). The scalar formulas are exactly the ones the
// training layers use, so pure fusion (no BN fold) is bit-identical to the
// reference eval forward.
type epAct uint8

// Fusable activations.
const (
	epNone epAct = iota
	epReLU
	epHardSwish
	epHardSigmoid
)

// stored is the activation a GEMM store applies for act. Hard-sigmoid, which
// no model's conv has and the store lacks, stores the bias alone and leaves
// the activation to a sweep.
func (act epAct) stored() vec.Act {
	switch act {
	case epReLU:
		return vec.ActReLU
	case epHardSwish:
		return vec.ActHardSwish
	}
	return vec.ActIdentity
}

// applyVecBiasAct computes row[j] = act(row[j] + bias[j]) in one sweep — the
// dense-layer epilogue, where the bias is per output column.
func applyVecBiasAct(row, bias []float32, act epAct) {
	switch act {
	case epNone:
		for j := range row {
			row[j] += bias[j]
		}
	case epReLU:
		for j := range row {
			if v := row[j] + bias[j]; v > 0 {
				row[j] = v
			} else {
				row[j] = 0
			}
		}
	case epHardSwish:
		for j := range row {
			v := row[j] + bias[j]
			row[j] = v * tensor.HardSigmoid(v)
		}
	case epHardSigmoid:
		for j := range row {
			row[j] = tensor.HardSigmoid(row[j] + bias[j])
		}
	}
}

// applyAct computes yd[i] = act(xd[i]) for every i of xd — the standalone
// activation sweep.
func applyAct(yd, xd []float32, act epAct) {
	yd = yd[:len(xd)]
	switch act {
	case epReLU:
		for i, v := range xd {
			if v > 0 {
				yd[i] = v
			} else {
				yd[i] = 0
			}
		}
	case epHardSwish:
		if vec.Live {
			vec.HardSwish(yd, xd)
			return
		}
		for i, v := range xd {
			yd[i] = v * tensor.HardSigmoid(v)
		}
	case epHardSigmoid:
		for i, v := range xd {
			yd[i] = tensor.HardSigmoid(v)
		}
	default:
		copy(yd, xd)
	}
}

// Fused conv ------------------------------------------------------------------

// frozenConv is Conv2D's inference op: im2col + a matmul that stores each
// output as act(sum + the (BN-folded) bias). Unlike the training layer it
// keeps ONE im2col scratch per parallel chunk instead of caching every
// sample×group column matrix for a backward pass. It follows the training layer's geometry dispatch
// (Conv2D.kernel, rule and bit-identity argument on the Conv2D type
// comment): pointwise convs matmul the image slice directly, depthwise
// groups run tensor.DepthwiseConvPlane, everything else lowers.
type frozenConv struct {
	l   *Conv2D
	bn  *BatchNorm2D // folded into wf/bf when non-nil
	act epAct

	wf []float32 // effective weights: alias l.W when bn == nil, else folded copy
	bf []float32 // effective biases: alias l.B when bn == nil, else folded copy

	// pw is the op's packed-weight handle (unused by depthwise convs, which
	// never matmul), holding all groups' rows as one [OutC, fanIn]
	// weights-as-A matrix; group gi dispatches rows [gi·gcOut, (gi+1)·gcOut).
	pw tensor.PackedWeights

	eps      []tensor.RowBias // one per group: its biases and the stored act
	dims     tensor.ConvDims
	inH, inW int
	cols     []float32 // per-chunk im2col scratch
	chunks   int       // how many chunks the last infer split its loop into

	// per-Run state for the parallel.Runner
	xd, od []float32
}

// build sizes the folded buffers and the per-group epilogues.
func (c *frozenConv) build() {
	l := c.l
	fanIn := (l.InC / l.Groups) * l.KH * l.KW
	if c.bn != nil {
		c.wf = make([]float32, l.OutC*fanIn)
		c.bf = make([]float32, l.OutC)
	} else {
		c.wf = l.W.W.Data()
		c.bf = l.B.W.Data()
	}
	gcOut := l.OutC / l.Groups
	c.eps = make([]tensor.RowBias, l.Groups)
	for gi := range c.eps {
		c.eps[gi] = tensor.RowBias{Bias: c.bf[gi*gcOut : (gi+1)*gcOut], Act: c.act.stored()}
	}
}

// refold implements refolder: W′ = W·scale, b′ = b·scale + shift per output
// channel, with scale/shift from the BN running statistics, then rebinds the
// packed-weight handle to the folded rows (the weights may have changed
// since the last Freeze even without BN, so the handle refreshes every
// refold).
func (c *frozenConv) refold() {
	l := c.l
	fanIn := (l.InC / l.Groups) * l.KH * l.KW
	if c.bn != nil {
		wd, bd := l.W.W.Data(), l.B.W.Data()
		for oc := 0; oc < l.OutC; oc++ {
			s, sh := bnScaleShift(c.bn, oc)
			row := wd[oc*fanIn : (oc+1)*fanIn]
			frow := c.wf[oc*fanIn : (oc+1)*fanIn]
			for j, v := range row {
				frow[j] = v * s
			}
			c.bf[oc] = bd[oc]*s + sh
		}
	}
	if l.kernel() == convDepthwise {
		return // direct tap loop, no matmul to feed
	}
	c.pw.RefreshA(c.wf, l.OutC, fanIn)
}

// infer implements frozenOp: Conv2D.Forward's sample×group loop, split
// across the intra-op budget — the one loop of the frozen forward the budget
// splits. One sample of a one-group conv is one iteration, so it runs on one
// core.
func (c *frozenConv) infer(f *Frozen, x *tensor.Tensor) *tensor.Tensor {
	l := c.l
	if x.NDim() != 4 || x.Dim(1) != l.InC {
		panic(fmt.Sprintf("nn: frozen Conv2D input %v, want [N %d H W]", x.Shape(), l.InC))
	}
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	if h != c.inH || w != c.inW {
		d, err := tensor.NewConvDims(l.InC/l.Groups, h, w, l.KH, l.KW, l.Stride, l.Pad)
		if err != nil {
			panic("nn: " + err.Error())
		}
		c.dims, c.inH, c.inW = d, h, w
	}
	d := c.dims
	rows, cols := d.ColRows(), d.ColCols()
	g := l.Groups
	gcOut := l.OutC / g
	fanIn := (l.InC / g) * l.KH * l.KW
	out := f.alloc(n, l.OutC, d.OutH, d.OutW)
	par := f.budget()
	iters := n * g
	grain := parallel.GrainFor(gcOut * fanIn * cols)
	c.chunks = parallel.Chunks(par, iters, grain)
	if l.kernel() == convLowered {
		if cap(c.cols) < c.chunks*rows*cols {
			c.cols = make([]float32, c.chunks*rows*cols)
		}
		c.cols = c.cols[:c.chunks*rows*cols]
	}
	c.xd, c.od = x.Data(), out.Data()
	parallel.Run(par, iters, grain, c)
	c.xd, c.od = nil, nil
	return out
}

// Run implements parallel.Runner over a contiguous sample×group range; each
// chunk owns the im2col scratch slice matching its chunk index.
func (c *frozenConv) Run(chunk, lo, hi int) {
	var col []float32
	if c.l.kernel() == convLowered {
		rc := c.dims.ColRows() * c.dims.ColCols()
		col = c.cols[chunk*rc : (chunk+1)*rc]
	}
	for it := lo; it < hi; it++ {
		c.inferIter(it, col)
	}
}

// inferIter runs one sample×group iteration through the cheapest kernel its
// shape admits (see the type comment), with bias + activation in the
// kernel's store, or a sweep over the finished output for an activation the
// kernel lacks.
func (c *frozenConv) inferIter(it int, col []float32) {
	l := c.l
	d := c.dims
	cols := d.ColCols()
	g := l.Groups
	gcIn, gcOut := l.InC/g, l.OutC/g
	fanIn := gcIn * l.KH * l.KW
	h, w := c.inH, c.inW
	imgStride := l.InC * h * w
	outStride := l.OutC * d.OutH * d.OutW
	i, gi := it/g, it%g

	img := c.xd[i*imgStride+gi*gcIn*h*w : i*imgStride+(gi+1)*gcIn*h*w]
	wg := c.wf[gi*gcOut*fanIn : (gi+1)*gcOut*fanIn]
	y := c.od[i*outStride+gi*gcOut*cols : i*outStride+(gi+1)*gcOut*cols]
	switch l.kernel() {
	case convDepthwise:
		// The plane kernel, no lowering at all, with the bias and hard-swish
		// fused; another activation is a sweep over the finished plane.
		tensor.DepthwiseConvPlane(y, img, wg, d, c.bf[gi], c.act == epHardSwish)
		if c.act != epNone && c.act != epHardSwish {
			applyAct(y, y, c.act)
		}
		return
	case convPointwise:
		// The im2col matrix IS the image slice.
		tensor.MatMulWASlicesEp(y, wg, &c.pw, gi*gcOut, gcOut, img, cols, false, &c.eps[gi])
	default:
		tensor.Im2Col(col, img, d)
		tensor.MatMulWASlicesEp(y, wg, &c.pw, gi*gcOut, gcOut, col, cols, false, &c.eps[gi])
	}
	if c.act == epHardSigmoid {
		applyAct(y, y, epHardSigmoid)
	}
}

// Fused dense -----------------------------------------------------------------

// denseEpilogue adds the per-column bias vector and applies the fused
// activation to one output row (= one sample).
type denseEpilogue struct {
	bias []float32
	act  epAct
}

// Apply implements tensor.RowEpilogue.
func (e *denseEpilogue) Apply(row []float32, _ int) { applyVecBiasAct(row, e.bias, e.act) }

// frozenDense is Dense's inference op: one fused matmul, bias+activation as
// the row epilogue.
type frozenDense struct {
	l   *Dense
	bn  *BatchNorm2D
	act epAct

	wf *tensor.Tensor // effective weights: alias l.W when bn == nil
	bf []float32
	ep denseEpilogue

	pw tensor.PackedWeights // the weights-as-B handle
}

// build sizes the folded buffers and the epilogue.
func (d *frozenDense) build() {
	if d.bn != nil {
		d.wf = tensor.New(d.l.In, d.l.Out)
		d.bf = make([]float32, d.l.Out)
	} else {
		d.wf = d.l.W.W
		d.bf = d.l.B.W.Data()
	}
	d.ep = denseEpilogue{bias: d.bf, act: d.act}
}

// refold implements refolder: column j is scaled by the BN channel j affine,
// then the weights-as-B handle rebinds to the folded matrix.
func (d *frozenDense) refold() {
	if d.bn != nil {
		in, out := d.l.In, d.l.Out
		wd, fd := d.l.W.W.Data(), d.wf.Data()
		bd := d.l.B.W.Data()
		for j := 0; j < out; j++ {
			s, sh := bnScaleShift(d.bn, j)
			for i := 0; i < in; i++ {
				fd[i*out+j] = wd[i*out+j] * s
			}
			d.bf[j] = bd[j]*s + sh
		}
	}
	d.pw.RefreshB(d.wf.Data(), d.l.In, d.l.Out)
}

// infer implements frozenOp.
func (d *frozenDense) infer(f *Frozen, x *tensor.Tensor) *tensor.Tensor {
	if x.NDim() != 2 || x.Dim(1) != d.l.In {
		panic(fmt.Sprintf("nn: frozen Dense input %v, want [N %d]", x.Shape(), d.l.In))
	}
	y := f.alloc(x.Dim(0), d.l.Out)
	tensor.MatMulWBSlicesEp(y.Data(), x.Data(), d.wf.Data(), &d.pw, x.Dim(0), false, &d.ep)
	return y
}

// Standalone BatchNorm --------------------------------------------------------

// frozenBN is the residual BatchNorm eval path: a BN that no matmul layer
// precedes (after a residual sum, pooling, a Parallel block). It applies the
// running-statistics affine y = scale·x + shift channel by channel.
type frozenBN struct {
	l            *BatchNorm2D
	scale, shift []float32
}

// refold implements refolder.
func (b *frozenBN) refold() {
	for c := 0; c < b.l.C; c++ {
		b.scale[c], b.shift[c] = bnScaleShift(b.l, c)
	}
}

// infer implements frozenOp.
func (b *frozenBN) infer(f *Frozen, x *tensor.Tensor) *tensor.Tensor {
	c := b.l.C
	if x.NDim() != 4 || x.Dim(1) != c {
		panic(fmt.Sprintf("nn: frozen BatchNorm2D input %v, want [N %d H W]", x.Shape(), c))
	}
	n, hw := x.Dim(0), x.Dim(2)*x.Dim(3)
	out := f.alloc(x.Shape()...)
	xd, od := x.Data(), out.Data()
	for ch := 0; ch < c; ch++ {
		s, sh := b.scale[ch], b.shift[ch]
		for i := 0; i < n; i++ {
			base := (i*c + ch) * hw
			row := od[base : base+hw]
			for j, v := range xd[base : base+hw] {
				row[j] = s*v + sh
			}
		}
	}
	return out
}

// Standalone activation -------------------------------------------------------

// frozenAct is an activation that does not follow a matmul layer (so it
// could not ride a kernel epilogue): one sweep with no backward mask.
type frozenAct struct {
	kind epAct
}

// infer implements frozenOp.
func (a *frozenAct) infer(f *Frozen, x *tensor.Tensor) *tensor.Tensor {
	y := f.alloc(x.Shape()...)
	applyAct(y.Data(), x.Data(), a.kind)
	return y
}

// Pooling ---------------------------------------------------------------------

// frozenMaxPool is MaxPool2D without the argmax cache.
type frozenMaxPool struct {
	k, stride int
}

// infer implements frozenOp.
func (p *frozenMaxPool) infer(f *Frozen, x *tensor.Tensor) *tensor.Tensor {
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	if h < p.k || w < p.k { // (h−k)/stride would truncate a negative up to 0
		panic(fmt.Sprintf("nn: frozen MaxPool2D k%d s%d on %dx%d", p.k, p.stride, h, w))
	}
	oh := (h-p.k)/p.stride + 1
	ow := (w-p.k)/p.stride + 1
	out := f.alloc(n, c, oh, ow)
	xd, od := x.Data(), out.Data()
	for pl := 0; pl < n*c; pl++ {
		base := pl * h * w
		oi := pl * oh * ow
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				iy0, ix0 := oy*p.stride, ox*p.stride
				best := xd[base+iy0*w+ix0]
				for ky := 0; ky < p.k; ky++ {
					row := base + (iy0+ky)*w + ix0
					for kx := 0; kx < p.k; kx++ {
						if v := xd[row+kx]; v > best {
							best = v
						}
					}
				}
				od[oi] = best
				oi++
			}
		}
	}
	return out
}

// planeMean sets od[i] to the mean of plane i of xd (planes of hw values) for
// every i of od — the one kernel of GlobalAvgPool and the SE squeeze, trained
// and frozen. Each plane's sum is one chain from +0 in the serial ascending
// order; the chains of four neighbouring planes run side by side.
func planeMean(od, xd []float32, hw int) {
	inv := 1 / float32(hw)
	planes := len(od)
	i := 0
	for ; i+4 <= planes; i += 4 {
		r0 := xd[i*hw:][:hw]
		// Re-sliced to len(r0) so the compiler drops the inner bounds checks.
		r1, r2, r3 := xd[(i+1)*hw:][:len(r0)], xd[(i+2)*hw:][:len(r0)], xd[(i+3)*hw:][:len(r0)]
		var s0, s1, s2, s3 float32
		for j, v := range r0 {
			s0 += v
			s1 += r1[j]
			s2 += r2[j]
			s3 += r3[j]
		}
		o := od[i : i+4]
		o[0], o[1], o[2], o[3] = s0*inv, s1*inv, s2*inv, s3*inv
	}
	for ; i < planes; i++ {
		var s float32
		for _, v := range xd[i*hw : (i+1)*hw] {
			s += v
		}
		od[i] = s * inv
	}
}

// planeDot sets od[i] to Σ_j ad[i·hw+j]·bd[i·hw+j] for every plane i of od,
// the squeeze-excite backward's dz: planeMean's four side-by-side chains,
// each from +0 in ascending j.
func planeDot(od, ad, bd []float32, hw int) {
	planes := len(od)
	i := 0
	for ; i+4 <= planes; i += 4 {
		a0 := ad[i*hw:][:hw]
		// Re-sliced to len(a0) so the compiler drops the inner bounds checks.
		a1, a2, a3 := ad[(i+1)*hw:][:len(a0)], ad[(i+2)*hw:][:len(a0)], ad[(i+3)*hw:][:len(a0)]
		b0, b1, b2, b3 := bd[i*hw:][:len(a0)], bd[(i+1)*hw:][:len(a0)], bd[(i+2)*hw:][:len(a0)], bd[(i+3)*hw:][:len(a0)]
		var s0, s1, s2, s3 float32
		for j, v := range a0 {
			s0 += v * b0[j]
			s1 += a1[j] * b1[j]
			s2 += a2[j] * b2[j]
			s3 += a3[j] * b3[j]
		}
		o := od[i : i+4]
		o[0], o[1], o[2], o[3] = s0, s1, s2, s3
	}
	for ; i < planes; i++ {
		var s float32
		b := bd[i*hw : (i+1)*hw]
		for j, v := range ad[i*hw : (i+1)*hw] {
			s += v * b[j]
		}
		od[i] = s
	}
}

// frozenGAP is GlobalAvgPool's inference op.
type frozenGAP struct{}

// infer implements frozenOp.
func (g *frozenGAP) infer(f *Frozen, x *tensor.Tensor) *tensor.Tensor {
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	out := f.alloc(n, c)
	planeMean(out.Data(), x.Data(), h*w)
	return out
}

// Composites ------------------------------------------------------------------

// frozenResidual runs both frozen branches and sums them, mirroring
// Residual.Forward's copy+add order exactly — unless the projection folded
// into a single affine (foldedProj non-nil), in which case the skip path
// never materializes: the projection's W′x + b′ is accumulated directly
// onto the body output by the accumulating fused matmul, one pass over y
// instead of a projection tensor plus an elementwise sum.
type frozenResidual struct {
	body, proj []frozenOp

	// foldedProj is proj's single op when the projection compiled down to
	// one pointwise conv with everything folded in (1×1, stride 1, no pad,
	// one group, BN absorbed by the conv fold, no activation) — exactly the
	// ResNet/MobileNet downsample-projection shape. Folding reassociates
	// the skip add ((y + W′x) + b′ versus y + (W′x + b′)), so it lives
	// under the same ≤1e-5 tolerance contract as BN folding.
	foldedProj *frozenConv
}

// foldProj detects the foldable projection shape at compile time.
func (r *frozenResidual) foldProj() {
	// An empty body compiles runOps to the input itself; accumulating onto
	// it would clobber x, so the fold requires a real body.
	if len(r.body) == 0 || len(r.proj) != 1 {
		return
	}
	fc, ok := r.proj[0].(*frozenConv)
	if !ok || fc.act != epNone {
		return
	}
	l := fc.l
	if l.Groups != 1 || l.KH != 1 || l.KW != 1 || l.Stride != 1 || l.Pad != 0 {
		return
	}
	r.foldedProj = fc
}

// infer implements frozenOp.
func (r *frozenResidual) infer(f *Frozen, x *tensor.Tensor) *tensor.Tensor {
	y := runOps(f, r.body, x)
	if r.foldedProj != nil {
		r.inferFolded(x, y)
		return y
	}
	s := runOps(f, r.proj, x)
	if !y.SameShape(s) {
		panic(fmt.Sprintf("nn: frozen Residual shape mismatch %v vs %v", y.Shape(), s.Shape()))
	}
	out := f.alloc(y.Shape()...)
	addInto(out.Data(), y.Data(), s.Data())
	return out
}

// addInto computes od[i] = yd[i] + sd[i]: the residual sum.
func addInto(od, yd, sd []float32) {
	if vec.Live {
		vec.Add(od, yd, sd)
		return
	}
	sd = sd[:len(yd)]
	for i, v := range yd {
		od[i] = v + sd[i]
	}
}

// inferFolded accumulates the folded projection onto the body output in
// place: y_i += W′ @ x_i + b′, one sample at a time.
func (r *frozenResidual) inferFolded(x, y *tensor.Tensor) {
	fc := r.foldedProj
	l := fc.l
	if x.NDim() != 4 || x.Dim(1) != l.InC {
		panic(fmt.Sprintf("nn: frozen Residual projection input %v, want [N %d H W]", x.Shape(), l.InC))
	}
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	if y.NDim() != 4 || y.Dim(0) != n || y.Dim(1) != l.OutC || y.Dim(2) != h || y.Dim(3) != w {
		panic(fmt.Sprintf("nn: frozen Residual shape mismatch %v vs projection [%d %d %d %d]",
			y.Shape(), n, l.OutC, h, w))
	}
	xd, yd, hw := x.Data(), y.Data(), h*w
	for i := 0; i < n; i++ {
		xi := xd[i*l.InC*hw : (i+1)*l.InC*hw]
		yi := yd[i*l.OutC*hw : (i+1)*l.OutC*hw]
		tensor.MatMulWASlicesEp(yi, fc.wf, &fc.pw, 0, l.OutC, xi, hw, true, &fc.eps[0])
	}
}

// refold implements refolder, recursing into both branches.
func (r *frozenResidual) refold() {
	refoldOps(r.body)
	refoldOps(r.proj)
}

// frozenParallel runs the frozen branches and concatenates along channels,
// mirroring Parallel.Forward.
type frozenParallel struct {
	l        *Parallel
	branches [][]frozenOp
	outCs    []int
	outs     []*tensor.Tensor // per-batch worklist, reused
}

// infer implements frozenOp.
func (p *frozenParallel) infer(f *Frozen, x *tensor.Tensor) *tensor.Tensor {
	n, c := x.Dim(0), x.Dim(1)
	nb := len(p.branches)
	totalC := 0
	for i, ops := range p.branches {
		in := x
		if p.l.SplitInput {
			if c%nb != 0 {
				panic(fmt.Sprintf("nn: frozen Parallel split %d channels across %d branches", c, nb))
			}
			per := c / nb
			in = frozenSliceChannels(f, x, i*per, (i+1)*per)
		}
		p.outs[i] = runOps(f, ops, in)
		p.outCs[i] = p.outs[i].Dim(1)
		totalC += p.outCs[i]
	}
	oh, ow := p.outs[0].Dim(2), p.outs[0].Dim(3)
	out := f.alloc(n, totalC, oh, ow)
	at := 0
	for _, o := range p.outs {
		if o.Dim(2) != oh || o.Dim(3) != ow {
			panic("nn: frozen Parallel branches disagree on spatial size")
		}
		copyChannels(out, o, at)
		at += o.Dim(1)
	}
	return out
}

// refold implements refolder, recursing into every branch.
func (p *frozenParallel) refold() {
	for _, ops := range p.branches {
		refoldOps(ops)
	}
}

// frozenSliceChannels copies channels [lo,hi) into a per-batch tensor.
func frozenSliceChannels(f *Frozen, x *tensor.Tensor, lo, hi int) *tensor.Tensor {
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	out := f.alloc(n, hi-lo, h, w)
	hw := h * w
	xd, od := x.Data(), out.Data()
	per := hi - lo
	for i := 0; i < n; i++ {
		copy(od[i*per*hw:(i+1)*per*hw], xd[(i*c+lo)*hw:(i*c+hi)*hw])
	}
	return out
}

// frozenSE is the squeeze-and-excitation inference op: plane-mean squeeze,
// the two excitation matmuls with their activations fused as epilogues, and
// the per-channel rescale.
type frozenSE struct {
	se       *SEBlock
	fc1, fc2 *frozenDense
}

// newFrozenSE compiles an SEBlock, fusing the excitation MLP's ReLU and
// HardSigmoid into the dense kernels.
func newFrozenSE(l *SEBlock) *frozenSE {
	fc1 := &frozenDense{l: l.fc1, act: epReLU}
	fc1.build()
	fc2 := &frozenDense{l: l.fc2, act: epHardSigmoid}
	fc2.build()
	return &frozenSE{se: l, fc1: fc1, fc2: fc2}
}

// infer implements frozenOp.
func (s *frozenSE) infer(f *Frozen, x *tensor.Tensor) *tensor.Tensor {
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	if c != s.se.C {
		panic(fmt.Sprintf("nn: frozen SEBlock channels %d, want %d", c, s.se.C))
	}
	hw := h * w
	sq := f.alloc(n, c)
	planeMean(sq.Data(), x.Data(), hw)
	z := s.fc2.infer(f, s.fc1.infer(f, sq))
	out := f.alloc(n, c, h, w)
	scaleRows(out.Data(), x.Data(), z.Data(), hw)
	return out
}

// scaleRows computes od[r·hw+j] = xd[r·hw+j]·z[r] for every plane r of z:
// the squeeze-excite rescale, and its backward's dx = dy·z.
func scaleRows(od, xd, z []float32, hw int) {
	if vec.Live {
		vec.ScaleRows(od, xd, z, len(z), hw)
		return
	}
	for i, zi := range z {
		row := od[i*hw : (i+1)*hw]
		for j, v := range xd[i*hw : (i+1)*hw] {
			row[j] = v * zi
		}
	}
}

// refold implements refolder for the excitation layers.
func (s *frozenSE) refold() {
	s.fc1.refold()
	s.fc2.refold()
}

// frozenWrap delegates to a layer's own eval forward — pure view or
// permutation layers with no backward caches, and any layer type the
// compiler does not know.
type frozenWrap struct {
	l Layer
}

// infer implements frozenOp.
func (w *frozenWrap) infer(_ *Frozen, x *tensor.Tensor) *tensor.Tensor {
	return w.l.Forward(x, false)
}
