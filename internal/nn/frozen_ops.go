package nn

import (
	"fmt"

	"heteroswitch/internal/parallel"
	"heteroswitch/internal/tensor"
	"heteroswitch/internal/vec"
)

// hardSigmoid computes z[i] = tensor.HardSigmoid(u[i]) for every i of u: the
// squeeze-excite gate, trained and frozen.
func hardSigmoid(z, u []float32) {
	z = z[:len(u)]
	for i, v := range u {
		z[i] = tensor.HardSigmoid(v)
	}
}

// Fused conv ------------------------------------------------------------------

// frozenConv is Conv2D's inference op: im2col + a matmul that stores each
// output as act(sum + the (BN-folded) bias). Unlike the training layer it
// keeps ONE im2col scratch per parallel chunk instead of caching every
// sample×group column matrix for a backward pass. It follows the training layer's geometry dispatch
// (Conv2D.kernel, rule and bit-identity argument on the Conv2D type
// comment): pointwise convs matmul the image slice directly, a depthwise
// conv runs tensor.DepthwiseConvPlane once per sample over all its planes,
// everything else lowers.
type frozenConv struct {
	l   *Conv2D
	bn  *BatchNorm2D // folded into wf/bf when non-nil
	act vec.Act

	wf []float32 // effective weights: alias l.W when bn == nil, else folded copy
	bf []float32 // effective biases: alias l.B when bn == nil, else folded copy

	// pw is the op's packed-weight handle (unused by depthwise convs, which
	// never matmul), holding all groups' rows as one [OutC, fanIn]
	// weights-as-A matrix; group gi dispatches rows [gi·gcOut, (gi+1)·gcOut).
	pw tensor.PackedWeights

	dims     tensor.ConvDims
	inH, inW int
	cols     []float32 // per-chunk im2col scratch
	chunks   int       // how many chunks the last infer split its loop into

	// per-Run state for the parallel.Runner
	xd, od []float32
}

// build sizes the folded buffers.
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

// infer implements frozenOp: Conv2D.Forward's sample×group loop (a
// depthwise conv's sample loop), split across the intra-op budget — the one
// loop of the frozen forward the budget splits. One sample of a one-group or
// depthwise conv is one iteration, so it runs on one core.
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
	d := &c.dims
	rows, cols := d.ColRows(), d.ColCols()
	g := l.Groups
	gcOut := l.OutC / g
	fanIn := (l.InC / g) * l.KH * l.KW
	out := f.alloc(n, l.OutC, d.OutH, d.OutW)
	par := f.budget()
	iters, work := n*g, gcOut*fanIn*cols
	if l.kernel() == convDepthwise {
		iters, work = n, l.OutC*fanIn*cols // an iteration is a whole sample
	}
	grain := parallel.GrainFor(work)
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

// Run implements parallel.Runner over a contiguous range of iterations; each
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

// inferIter runs one iteration — a sample×group, or a whole sample of a
// depthwise conv — through the cheapest kernel its shape admits (see the
// type comment), with bias + activation in the kernel's store.
func (c *frozenConv) inferIter(it int, col []float32) {
	l := c.l
	d := &c.dims
	cols := d.ColCols()
	h, w := c.inH, c.inW
	imgStride := l.InC * h * w
	outStride := l.OutC * d.OutH * d.OutW
	if l.kernel() == convDepthwise {
		// The plane kernel over all the sample's channels, no lowering at
		// all, with the biases and the activation fused.
		tensor.DepthwiseConvPlane(c.od[it*outStride:(it+1)*outStride], c.xd[it*imgStride:(it+1)*imgStride], c.wf, d, c.bf, c.act)
		return
	}
	g := l.Groups
	gcIn, gcOut := l.InC/g, l.OutC/g
	fanIn := gcIn * l.KH * l.KW
	i, gi := it/g, it%g

	img := c.xd[i*imgStride+gi*gcIn*h*w : i*imgStride+(gi+1)*gcIn*h*w]
	wg := c.wf[gi*gcOut*fanIn : (gi+1)*gcOut*fanIn]
	y := c.od[i*outStride+gi*gcOut*cols : i*outStride+(gi+1)*gcOut*cols]
	bias := c.bf[gi*gcOut : (gi+1)*gcOut]
	if l.kernel() == convPointwise {
		// The im2col matrix IS the image slice.
		tensor.MatMulWASlicesEp(y, wg, &c.pw, gi*gcOut, gcOut, img, cols, bias, c.act)
		return
	}
	tensor.Im2Col(col, img, d)
	tensor.MatMulWASlicesEp(y, wg, &c.pw, gi*gcOut, gcOut, col, cols, bias, c.act)
}

// Fused dense -----------------------------------------------------------------

// frozenDense is Dense's inference op: one fused matmul that adds the bias,
// one per unit, and applies the ReLU the layer absorbed, if any.
type frozenDense struct {
	l   *Dense
	act vec.Act // the identity or ReLU

	pw tensor.PackedWeights // the weights-as-B handle
}

// refold implements refolder: the weights-as-B handle rebinds to the
// current weights.
func (d *frozenDense) refold() { d.pw.RefreshB(d.l.W.W.Data(), d.l.In, d.l.Out) }

// infer implements frozenOp.
func (d *frozenDense) infer(f *Frozen, x *tensor.Tensor) *tensor.Tensor {
	if x.NDim() != 2 || x.Dim(1) != d.l.In {
		panic(fmt.Sprintf("nn: frozen Dense input %v, want [N %d]", x.Shape(), d.l.In))
	}
	y := f.alloc(x.Dim(0), d.l.Out)
	tensor.MatMulWBSlicesEp(y.Data(), x.Data(), d.l.W.W.Data(), &d.pw, x.Dim(0), d.l.B.W.Data(), d.act)
	return y
}

// Composites ------------------------------------------------------------------

// frozenResidual runs both frozen branches and sums them in one pass,
// mirroring Residual.Forward exactly.
type frozenResidual struct {
	body, proj []frozenOp
}

// infer implements frozenOp.
func (r *frozenResidual) infer(f *Frozen, x *tensor.Tensor) *tensor.Tensor {
	y := runOps(f, r.body, x)
	s := runOps(f, r.proj, x)
	if !y.SameShape(s) {
		panic(fmt.Sprintf("nn: frozen Residual shape mismatch %v vs %v", y.Shape(), s.Shape()))
	}
	out := f.alloc(y.Shape()...)
	tensor.Add(out.Data(), y.Data(), s.Data())
	return out
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
			in = f.alloc(n, per, x.Dim(2), x.Dim(3))
			sliceChannels(in, x, i*per)
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

// frozenSE is the squeeze-and-excitation inference op: plane-mean squeeze,
// the two excitation matmuls (fc1's ReLU fused as its epilogue, fc2 storing
// its bias only), the hard-sigmoid gate, and the per-channel rescale.
type frozenSE struct {
	se       *SEBlock
	fc1, fc2 *frozenDense
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
	hardSigmoid(z.Data(), z.Data())
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

// planeMean sets od[i] to the mean of plane i of xd (planes of hw values) for
// every i of od — the one kernel of GlobalAvgPool and the SE squeeze, trained
// and frozen: the plane's planeSums chain times 1/hw.
func planeMean(od, xd []float32, hw int) {
	planeSums(od, xd, nil, hw, false)
	inv := 1 / float32(hw)
	for i := range od {
		od[i] *= inv
	}
}

// planeSums computes s_i = Σ_j a[i·n+j] for every plane i of od (planes of n
// values), or Σ_j a[i·n+j]·b[i·n+j] when b is not nil, and stores od[i] = s_i,
// or adds od[i] += s_i when acc: the plane mean's sums, the squeeze-excite
// backward's dz and, once per sample, the conv bias gradient. Each s_i is one
// chain from +0 in ascending j, each product rounded before its add, with the
// running sum the first operand of every add and a the first of every
// multiply. With the vector kernels live, eight or more planes take
// vec.PlaneSums, eight chains in the lanes; the Go loop, chains4, runs the
// chains of four neighbouring planes side by side, a last group of fewer than
// four repeating its first plane in the chains it does not store.
func planeSums(od, a, b []float32, n int, acc bool) {
	planes := len(od)
	if vec.Live && planes >= vec.PlaneSumsMin {
		vec.PlaneSums(od, a, b, planes, n, acc)
		return
	}
	for i := 0; i < planes; i += 4 {
		o := od[i:min(i+4, planes)]
		// Each chain's plane offset; chains past the last plane repeat plane i.
		at := [4]int{i * n, i * n, i * n, i * n}
		for k := range o {
			at[k] = (i + k) * n
		}
		s0, s1, s2, s3 := chains4(a, b, at, n)
		sums := [4]float32{s0, s1, s2, s3}
		for k, t := range o {
			if acc {
				sums[k] = onto(t, sums[k])
			}
			o[k] = sums[k]
		}
	}
}

// chains4 returns the sums of the four n-element planes of a at offsets at
// (their dots with b's planes when b is not nil), four chains side by side.
// Each product indexes a and b inside the branch that forms it: that shape
// compiles every multiply with b as the memory operand, so a is the first
// (TestPlaneDotMatchesOneChain holds the NaN it keeps). It is a leaf of its
// own: inline beside planeSums' onto call, the loop's registers spill and
// BenchmarkPlaneSums' generic arm runs at half speed.
func chains4(a, b []float32, at [4]int, n int) (s0, s1, s2, s3 float32) {
	a0 := a[at[0]:][:n]
	// Re-sliced to len(a0) so the compiler drops the inner bounds checks.
	a1, a2, a3 := a[at[1]:][:len(a0)], a[at[2]:][:len(a0)], a[at[3]:][:len(a0)]
	var b0, b1, b2, b3 []float32
	if b != nil {
		b0, b1, b2, b3 = b[at[0]:][:len(a0)], b[at[1]:][:len(a0)], b[at[2]:][:len(a0)], b[at[3]:][:len(a0)]
	}
	for j := range a0 {
		var v0, v1, v2, v3 float32
		if b != nil {
			v0, v1, v2, v3 = a0[j]*b0[j], a1[j]*b1[j], a2[j]*b2[j], a3[j]*b3[j]
		} else {
			v0, v1, v2, v3 = a0[j], a1[j], a2[j], a3[j]
		}
		s0 += v0
		s1 += v1
		s2 += v2
		s3 += v3
	}
	return
}

// onto returns t + s with t the first operand, so t's NaN survives where both
// are NaN: the accumulating store of planeSums. Inlined, the compiler may
// take s first.
//
//go:noinline
func onto(t, s float32) float32 { return t + s }

// refold implements refolder for the excitation layers.
func (s *frozenSE) refold() {
	s.fc1.refold()
	s.fc2.refold()
}

// frozenWrap is every layer with nothing to fold, fuse or recurse into: the
// op is the layer's own eval forward (view and permutation layers, pooling,
// a BatchNorm2D no conv precedes, a ReLU no matmul layer absorbs, and any
// layer type the compiler does not know).
type frozenWrap struct {
	l Layer
}

// infer implements frozenOp.
func (w *frozenWrap) infer(_ *Frozen, x *tensor.Tensor) *tensor.Tensor {
	return w.l.Forward(x, false)
}
