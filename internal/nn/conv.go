package nn

import (
	"fmt"
	"math"

	"heteroswitch/internal/frand"
	"heteroswitch/internal/parallel"
	"heteroswitch/internal/tensor"
	"heteroswitch/internal/vec"
)

// Conv2D is a grouped 2-D convolution over NCHW tensors. Groups==1 is a
// standard convolution; Groups==InC with OutC==InC is a depthwise
// convolution (the MobileNet building block); 1<Groups<InC gives the grouped
// convolutions used by ShuffleNet.
//
// The general implementation lowers each sample and group to an im2col
// matrix and a single matmul, caching the column matrices for the backward
// pass. Two geometries skip the lowering in all three passes (forward, dW,
// dx) — one rule, the kernel method below, for this layer and for its frozen
// inference op alike:
//
//   - pointwise (1×1, stride 1, no pad): the im2col matrix IS the input
//     slice, so the matmuls read x and write dx directly;
//   - depthwise (Groups == InC == OutC): the tap-outer plane kernels
//     tensor.DepthwiseConvPlane / GradW / GradX, whose lowering would cost
//     more than the arithmetic.
//
// Neither sizes cols or dcol. Both accumulate every output, dW and dx
// element in the lowered kernels' per-target order, so for finite inputs
// they are bit-identical to the lowered path (the caveat is spelled out on
// tensor.DepthwiseConvPlane).
//
// Under an intra-op budget (SetIntraOp), the sample×group loops run in
// parallel: forward iterations and the input-gradient iterations write
// disjoint slices, and the weight/bias gradients are parallelized over
// output-channel rows with the per-sample accumulation kept in ascending
// sample order — so results are bit-identical to the serial layer at every
// budget. A single-iteration layer (N=1, Groups=1) passes the budget down to
// the row-parallel matmul kernels instead, so large single-sample convs
// still use the cores.
type Conv2D struct {
	arenaScratch
	intraOp
	InC, OutC   int
	KH, KW      int
	Stride, Pad int
	Groups      int
	W, B        *Param
	inH, inW    int // geometry captured at Forward time
	dims        tensor.ConvDims
	cols        []float32 // cached im2col matrices: [N][G][rows*cols] (lowered path only)
	dcol        []float32 // backward scratch: one [rows*cols] column gradient per parallel chunk (lowered path only)
	batch       int
	x           *tensor.Tensor
	// persistent parallel.Runner values (avoid per-batch allocation)
	fwdTask convFwdTask
	rowTask convRowTask
	dxTask  convDxTask
}

// convKernel names the kernel family a conv geometry runs on; see the
// Conv2D type comment.
type convKernel uint8

const (
	convLowered   convKernel = iota // im2col + matmul (stem, grouped, everything else)
	convPointwise                   // matmul on the input slice itself
	convDepthwise                   // direct plane kernels, no matmul
)

// kernel is the one geometry dispatch shared by the training passes and
// frozenConv. A layer that is both depthwise and 1×1 takes the plane kernels.
func (l *Conv2D) kernel() convKernel {
	switch {
	case l.Groups == l.InC && l.OutC == l.InC:
		return convDepthwise
	case l.KH == 1 && l.KW == 1 && l.Stride == 1 && l.Pad == 0:
		return convPointwise
	}
	return convLowered
}

// NewConv2D builds a grouped convolution with He-normal init. It panics if
// channel counts are not divisible by groups, or on a kernel or stride below
// 1 or a negative pad (construction-time programmer errors).
func NewConv2D(r *frand.RNG, inC, outC, k, stride, pad, groups int) *Conv2D {
	if groups < 1 || inC%groups != 0 || outC%groups != 0 {
		panic(fmt.Sprintf("nn: Conv2D groups=%d incompatible with channels %d→%d", groups, inC, outC))
	}
	if k < 1 || stride < 1 || pad < 0 {
		panic(fmt.Sprintf("nn: Conv2D %d→%d invalid geometry k=%d stride=%d pad=%d", inC, outC, k, stride, pad))
	}
	fanIn := (inC / groups) * k * k
	std := math.Sqrt(2.0 / float64(fanIn))
	w := tensor.Randn(r, std, outC, fanIn)
	name := fmt.Sprintf("conv%d_%d_k%dg%d", inC, outC, k, groups)
	return &Conv2D{
		InC: inC, OutC: outC, KH: k, KW: k, Stride: stride, Pad: pad, Groups: groups,
		W: &Param{Name: name + ".W", W: w, Grad: tensor.New(outC, fanIn)},
		B: &Param{Name: name + ".b", W: tensor.New(outC), Grad: tensor.New(outC)},
	}
}

// NewDepthwiseConv2D builds a depthwise convolution (groups == channels).
func NewDepthwiseConv2D(r *frand.RNG, c, k, stride, pad int) *Conv2D {
	return NewConv2D(r, c, c, k, stride, pad, c)
}

// Forward implements Layer.
func (l *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.NDim() != 4 || x.Dim(1) != l.InC {
		panic(fmt.Sprintf("nn: Conv2D input %v, want [N %d H W]", x.Shape(), l.InC))
	}
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	if h != l.inH || w != l.inW {
		d, err := tensor.NewConvDims(l.InC/l.Groups, h, w, l.KH, l.KW, l.Stride, l.Pad)
		if err != nil {
			panic("nn: " + err.Error())
		}
		l.dims, l.inH, l.inW = d, h, w
	}
	d := l.dims
	rows, cols := d.ColRows(), d.ColCols()
	g := l.Groups
	gcIn := l.InC / g
	gcOut := l.OutC / g
	if l.kernel() == convLowered {
		need := n * g * rows * cols
		if cap(l.cols) < need {
			l.cols = make([]float32, need)
		}
		l.cols = l.cols[:need]
	}
	l.batch = n
	l.x = x

	out := l.allocUninit(n, l.OutC, d.OutH, d.OutW)
	xd, od := x.Data(), out.Data()
	fanIn := gcIn * l.KH * l.KW
	iters := n * g
	if iters == 1 {
		// One sample, one group: no iteration-level parallelism to mine, so
		// hand the whole budget to the row-parallel matmul instead.
		l.forwardIter(0, l.budget(), xd, od)
		return out
	}
	l.fwdTask = convFwdTask{l: l, xd: xd, od: od}
	parallel.Run(l.budget(), iters, parallel.GrainFor(gcOut*fanIn*cols), &l.fwdTask)
	return out
}

// forwardIter runs one sample×group forward iteration through the layer's
// kernel — im2col + the group matmul (row-parallel under par), the matmul on
// the input slice, or the depthwise plane kernel — then the bias add.
// Iterations write disjoint col and output slices, so any subset may run
// concurrently.
func (l *Conv2D) forwardIter(it, par int, xd, od []float32) {
	d := l.dims
	rows, cols := d.ColRows(), d.ColCols()
	g := l.Groups
	gcIn := l.InC / g
	gcOut := l.OutC / g
	fanIn := gcIn * l.KH * l.KW
	h, w := l.inH, l.inW
	imgStride := l.InC * h * w
	outStride := l.OutC * d.OutH * d.OutW
	wd, bd := l.W.W.Data(), l.B.W.Data()
	i, gi := it/g, it%g

	img := xd[i*imgStride+gi*gcIn*h*w : i*imgStride+(gi+1)*gcIn*h*w]
	wg := wd[gi*gcOut*fanIn : (gi+1)*gcOut*fanIn]
	y := od[i*outStride+gi*gcOut*cols : i*outStride+(gi+1)*gcOut*cols]
	// y[gcOut, cols] = Wg[gcOut, fanIn] @ col[fanIn, cols]
	switch l.kernel() {
	case convDepthwise:
		tensor.DepthwiseConvPlane(y, img, wg, d)
	case convPointwise:
		tensor.MatMulSlicesP(par, y, wg, img, gcOut, fanIn, cols)
	default:
		col := l.cols[(i*g+gi)*rows*cols : (i*g+gi+1)*rows*cols]
		tensor.Im2Col(col, img, d)
		tensor.MatMulSlicesP(par, y, wg, col, gcOut, fanIn, cols)
	}
	if vec.Live {
		vec.BiasAct(y, gcOut, cols, bd[gi*gcOut:], false)
		return
	}
	for oc := 0; oc < gcOut; oc++ {
		b := bd[gi*gcOut+oc]
		row := y[oc*cols : (oc+1)*cols]
		for j := range row {
			row[j] += b
		}
	}
}

// convFwdTask is the parallel.Runner for the forward sample×group loop.
type convFwdTask struct {
	l      *Conv2D
	xd, od []float32
}

// Run implements parallel.Runner over a contiguous iteration range.
func (t *convFwdTask) Run(_, lo, hi int) {
	for it := lo; it < hi; it++ {
		t.l.forwardIter(it, 1, t.xd, t.od)
	}
}

// Backward implements Layer. It runs in two phases so each can parallelize
// without changing any accumulation order:
//
//  1. Weight and bias gradients, parallel over output-channel rows. Each row
//     of dW (and its db entry) is owned by one goroutine that folds the
//     samples in ascending order — the same per-target order as the serial
//     i-outer loop, so results are bit-identical.
//  2. Input gradients, parallel over sample×group iterations. Iterations
//     write disjoint dx slices; on the lowered path each parallel chunk owns
//     a private dcol scratch.
func (l *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	d := l.dims
	rows, cols := d.ColRows(), d.ColCols()
	g := l.Groups
	gcIn := l.InC / g
	gcOut := l.OutC / g
	fanIn := gcIn * l.KH * l.KW
	n := l.batch
	h, w := l.inH, l.inW

	// Col2ImP and the direct dx kernels accumulate, so dx must start zeroed.
	dx := l.alloc(n, l.InC, h, w)
	gd, dxd := grad.Data(), dx.Data()

	// Phase 1: dW and db, parallel over the OutC output-channel rows. One
	// row costs n·cols·fanIn multiply-adds across all samples.
	l.rowTask = convRowTask{l: l, gd: gd}
	parallel.Run(l.budget(), l.OutC, parallel.GrainFor(n*cols*fanIn), &l.rowTask)

	// Phase 2: dx, parallel over sample×group iterations; the lowered path
	// gets one dcol scratch per chunk (sized to the partition Run will
	// actually use).
	iters := n * g
	perIter := gcOut * fanIn * cols
	if l.kernel() == convLowered {
		chunks := parallel.Chunks(l.budget(), iters, parallel.GrainFor(perIter))
		if cap(l.dcol) < chunks*rows*cols {
			l.dcol = make([]float32, chunks*rows*cols)
		}
		l.dcol = l.dcol[:chunks*rows*cols]
	}
	if iters == 1 {
		// Single iteration: hand the budget to the row-parallel kernel.
		l.backwardIter(0, l.budget(), l.dcol, gd, dxd)
		return dx
	}
	l.dxTask = convDxTask{l: l, gd: gd, dxd: dxd}
	parallel.Run(l.budget(), iters, parallel.GrainFor(perIter), &l.dxTask)
	return dx
}

// backwardRows accumulates dW rows [lo, hi) (global output-channel indices
// across groups) and their db entries, folding samples in ascending order.
func (l *Conv2D) backwardRows(gd []float32, lo, hi int) {
	d := l.dims
	rows, cols := d.ColRows(), d.ColCols()
	g := l.Groups
	gcIn := l.InC / g
	gcOut := l.OutC / g
	fanIn := gcIn * l.KH * l.KW
	n := l.batch
	h, w := l.inH, l.inW
	imgStride := l.InC * h * w
	outStride := l.OutC * d.OutH * d.OutW
	dwd, dbd := l.W.Grad.Data(), l.B.Grad.Data()
	xd := l.x.Data()
	kern := l.kernel()

	for oc := lo; oc < hi; {
		gi := oc / gcOut
		segHi := min(hi, (gi+1)*gcOut)
		o0 := oc - gi*gcOut // first row within the group
		segRows := segHi - oc
		dwg := dwd[gi*gcOut*fanIn : (gi+1)*gcOut*fanIn]
		for i := 0; i < n; i++ {
			dy := gd[i*outStride+gi*gcOut*cols : i*outStride+(gi+1)*gcOut*cols]
			img := xd[i*imgStride+gi*gcIn*h*w : i*imgStride+(gi+1)*gcIn*h*w]
			// dWg rows [o0, o0+segRows) += dy rows @ colᵀ, in place.
			switch kern {
			case convDepthwise:
				tensor.DepthwiseConvPlaneGradW(dwg, dy, img, d)
			case convPointwise:
				tensor.MatMulTransBAccSlices(dwg[o0*fanIn:(o0+segRows)*fanIn],
					dy[o0*cols:(o0+segRows)*cols], img, segRows, cols, fanIn)
			default:
				col := l.cols[(i*g+gi)*rows*cols : (i*g+gi+1)*rows*cols]
				tensor.MatMulTransBAccSlices(dwg[o0*fanIn:(o0+segRows)*fanIn],
					dy[o0*cols:(o0+segRows)*cols], col, segRows, cols, fanIn)
			}
		}
		// db += Σ spatial dy for the same rows, samples ascending. Row r of
		// sample i starts at gd[i·outStride + r·cols].
		for r := oc; r < segHi; r++ {
			dbd[r] = foldRowSums(dbd[r], gd[r*cols:], outStride, n, cols)
		}
		oc = segHi
	}
}

// foldRowSums adds the sums of n rows of cols elements, stride apart, onto s
// in ascending row order: s += Σ rows[i·stride : i·stride+cols] for i < n.
// Each row's sum is its own accumulator from +0 over its elements ascending —
// an independent chain — so four rows run side by side.
func foldRowSums(s float32, rows []float32, stride, n, cols int) float32 {
	i := 0
	for ; i+4 <= n; i += 4 {
		r0 := rows[i*stride:][:cols]
		// Re-sliced to len(r0) so the compiler drops the inner bounds checks.
		r1, r2, r3 := rows[(i+1)*stride:][:len(r0)], rows[(i+2)*stride:][:len(r0)], rows[(i+3)*stride:][:len(r0)]
		var s0, s1, s2, s3 float32
		for j, v := range r0 {
			s0 += v
			s1 += r1[j]
			s2 += r2[j]
			s3 += r3[j]
		}
		s += s0
		s += s1
		s += s2
		s += s3
	}
	for ; i < n; i++ {
		var si float32
		for _, v := range rows[i*stride:][:cols] {
			si += v
		}
		s += si
	}
	return s
}

// backwardIter computes one sample×group input-gradient iteration. Lowered:
// dcol = Wgᵀ @ dy (row-parallel under par), scattered back to dx via the
// column-blocked Col2ImP (parallel over disjoint image columns under the
// same budget — the single-iteration case where par > 1). Pointwise: the
// same matmul accumulates straight into the zeroed dx slice. Depthwise: the
// plane kernel. The transposed-A kernel reads Wg in place instead of
// materializing Wgᵀ. dcol is read only on the lowered path.
func (l *Conv2D) backwardIter(it, par int, dcol, gd, dxd []float32) {
	d := l.dims
	cols := d.ColCols()
	g := l.Groups
	gcIn := l.InC / g
	gcOut := l.OutC / g
	fanIn := gcIn * l.KH * l.KW
	h, w := l.inH, l.inW
	imgStride := l.InC * h * w
	outStride := l.OutC * d.OutH * d.OutW
	wd := l.W.W.Data()
	i, gi := it/g, it%g

	dy := gd[i*outStride+gi*gcOut*cols : i*outStride+(gi+1)*gcOut*cols]
	wg := wd[gi*gcOut*fanIn : (gi+1)*gcOut*fanIn]
	dimg := dxd[i*imgStride+gi*gcIn*h*w : i*imgStride+(gi+1)*gcIn*h*w]
	switch l.kernel() {
	case convDepthwise:
		tensor.DepthwiseConvPlaneGradX(dimg, dy, wg, d)
	case convPointwise:
		tensor.MatMulTransAAccSlicesP(par, dimg, wg, dy, gcOut, fanIn, cols)
	default:
		clear(dcol)
		tensor.MatMulTransAAccSlicesP(par, dcol, wg, dy, gcOut, fanIn, cols)
		tensor.Col2ImP(par, dimg, dcol, d)
	}
}

// convRowTask is the parallel.Runner for the weight/bias gradient rows.
type convRowTask struct {
	l  *Conv2D
	gd []float32
}

// Run implements parallel.Runner over a contiguous output-channel row range.
func (t *convRowTask) Run(_, lo, hi int) { t.l.backwardRows(t.gd, lo, hi) }

// convDxTask is the parallel.Runner for the input-gradient iterations; on
// the lowered path each chunk owns the dcol scratch slice matching its chunk
// index.
type convDxTask struct {
	l       *Conv2D
	gd, dxd []float32
}

// Run implements parallel.Runner over a contiguous iteration range.
func (t *convDxTask) Run(chunk, lo, hi int) {
	var dcol []float32
	if t.l.kernel() == convLowered {
		rc := t.l.dims.ColRows() * t.l.dims.ColCols()
		dcol = t.l.dcol[chunk*rc : (chunk+1)*rc]
	}
	for it := lo; it < hi; it++ {
		t.l.backwardIter(it, 1, dcol, t.gd, t.dxd)
	}
}

// Params implements Layer.
func (l *Conv2D) Params() []*Param { return []*Param{l.W, l.B} }

// States implements Layer.
func (l *Conv2D) States() []*tensor.Tensor { return nil }

// Name implements Layer.
func (l *Conv2D) Name() string {
	return fmt.Sprintf("Conv2D(%d→%d, k%d, s%d, g%d)", l.InC, l.OutC, l.KH, l.Stride, l.Groups)
}

// ChannelShuffle permutes channels between groups, the ShuffleNet mixing
// operation: viewing channels as [g, c/g], it transposes to [c/g, g].
type ChannelShuffle struct {
	arenaScratch
	Groups int
	c      int
}

// NewChannelShuffle returns a shuffle layer with the given group count.
func NewChannelShuffle(groups int) *ChannelShuffle { return &ChannelShuffle{Groups: groups} }

// Forward implements Layer.
func (l *ChannelShuffle) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	l.c = x.Dim(1)
	return l.shuffleChannels(x, l.Groups)
}

// Backward implements Layer: the inverse of a [g, c/g] transpose is a
// [c/g, g] transpose.
func (l *ChannelShuffle) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return l.shuffleChannels(grad, l.c/l.Groups)
}

func (l *ChannelShuffle) shuffleChannels(x *tensor.Tensor, g int) *tensor.Tensor {
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	if c%g != 0 {
		panic(fmt.Sprintf("nn: ChannelShuffle %d channels not divisible by %d groups", c, g))
	}
	per := c / g
	out := l.allocUninit(n, c, h, w)
	hw := h * w
	xd, od := x.Data(), out.Data()
	for i := 0; i < n; i++ {
		base := i * c * hw
		for gi := 0; gi < g; gi++ {
			for ci := 0; ci < per; ci++ {
				src := xd[base+(gi*per+ci)*hw : base+(gi*per+ci+1)*hw]
				dst := od[base+(ci*g+gi)*hw : base+(ci*g+gi+1)*hw]
				copy(dst, src)
			}
		}
	}
	return out
}

// Params implements Layer.
func (l *ChannelShuffle) Params() []*Param { return nil }

// States implements Layer.
func (l *ChannelShuffle) States() []*tensor.Tensor { return nil }

// Name implements Layer.
func (l *ChannelShuffle) Name() string { return fmt.Sprintf("ChannelShuffle(g%d)", l.Groups) }
