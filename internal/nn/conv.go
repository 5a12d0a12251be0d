package nn

import (
	"fmt"
	"math"

	"heteroswitch/internal/frand"
	"heteroswitch/internal/tensor"
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
//   - depthwise (Groups == InC == OutC): the plane kernels
//     tensor.DepthwiseConvPlane (bias fused) / GradW / GradX, whose lowering
//     would cost more than the arithmetic.
//
// Neither sizes cols, and dcol holds only the depthwise weight gradient's
// copy of a sample's planes (tensor.ConvDims.DepthwiseGradWScratch). Both
// accumulate every output, dW and dx
// element in the lowered kernels' per-target order, so for finite inputs
// they are bit-identical to the lowered path (the caveat is spelled out on
// tensor.DepthwiseConvPlane).
//
// Training runs on one goroutine: a network is one client's model, and
// training parallelism is one model per worker.
type Conv2D struct {
	arenaScratch
	InC, OutC   int
	KH, KW      int
	Stride, Pad int
	Groups      int
	W, B        *Param
	inH, inW    int // geometry captured at Forward time
	dims        tensor.ConvDims
	cols        []float32 // cached im2col matrices: [N][G][rows*cols] (lowered path only)
	dcol        []float32 // backward scratch: one [rows*cols] column gradient (lowered), or the depthwise dW's plane copy
	batch       int
	x           *tensor.Tensor
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

// Forward implements Layer. Each sample×group iteration runs the layer's
// kernel — im2col + the group matmul, the matmul on the input slice, or the
// depthwise plane kernel — each with the bias added in its store.
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
	fanIn := gcIn * l.KH * l.KW
	kern := l.kernel()
	if kern == convLowered {
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
	wd, bd := l.W.W.Data(), l.B.W.Data()
	imgStride := l.InC * h * w
	outStride := l.OutC * d.OutH * d.OutW
	for i := 0; i < n; i++ {
		for gi := 0; gi < g; gi++ {
			img := xd[i*imgStride+gi*gcIn*h*w : i*imgStride+(gi+1)*gcIn*h*w]
			wg := wd[gi*gcOut*fanIn : (gi+1)*gcOut*fanIn]
			y := od[i*outStride+gi*gcOut*cols : i*outStride+(gi+1)*gcOut*cols]
			// y[gcOut, cols] = Wg[gcOut, fanIn] @ col[fanIn, cols]
			switch kern {
			case convDepthwise:
				tensor.DepthwiseConvPlane(y, img, wg, d, bd[gi], false)
			case convPointwise:
				tensor.MatMulSlices(y, wg, img, gcOut, fanIn, cols, bd[gi*gcOut:(gi+1)*gcOut])
			default:
				col := l.cols[(i*g+gi)*rows*cols : (i*g+gi+1)*rows*cols]
				tensor.Im2Col(col, img, d)
				tensor.MatMulSlices(y, wg, col, gcOut, fanIn, cols, bd[gi*gcOut:(gi+1)*gcOut])
			}
		}
	}
	return out
}

// Backward implements Layer. Each sample×group iteration accumulates its dW
// (dy @ colᵀ) and its input gradient; samples ascend, so every dW element
// folds them in order. Lowered: dcol = Wgᵀ @ dy, scattered back to dx via
// Col2Im. Pointwise: the same matmul accumulates straight into the zeroed
// dx slice. The transposed-A kernel reads Wg in place instead of
// materializing Wgᵀ. Depthwise: the plane kernels, once per sample over all
// its channels.
func (l *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
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
	wd, dwd, dbd := l.W.W.Data(), l.W.Grad.Data(), l.B.Grad.Data()
	xd := l.x.Data()
	kern := l.kernel()

	// Col2Im and the direct dx kernels accumulate, so dx must start zeroed.
	dx := l.alloc(n, l.InC, h, w)
	gd, dxd := grad.Data(), dx.Data()
	scratch := rows * cols // dcol's length: the lowered column gradient
	switch kern {
	case convPointwise:
		scratch = 0
	case convDepthwise: // … or the depthwise dW's copy of a sample's planes
		scratch = d.DepthwiseGradWScratch()
	}
	if cap(l.dcol) < scratch {
		l.dcol = make([]float32, scratch)
	}
	l.dcol = l.dcol[:scratch]
	for i := 0; i < n; i++ {
		if kern == convDepthwise {
			// The plane kernels sweep all of a sample's channels in one call.
			img, dimg := xd[i*imgStride:(i+1)*imgStride], dxd[i*imgStride:(i+1)*imgStride]
			dy := gd[i*outStride : (i+1)*outStride]
			tensor.DepthwiseConvPlaneGradW(dwd, dy, img, l.dcol, d)
			tensor.DepthwiseConvPlaneGradX(dimg, dy, wd, d)
			continue
		}
		for gi := 0; gi < g; gi++ {
			// Offsets of this sample×group's input plane (x and dx), output
			// plane (dy) and weights (W and dW).
			xo := i*imgStride + gi*gcIn*h*w
			yo := i*outStride + gi*gcOut*cols
			wo := gi * gcOut * fanIn
			img, dimg := xd[xo:xo+gcIn*h*w], dxd[xo:xo+gcIn*h*w]
			dy := gd[yo : yo+gcOut*cols]
			wg, dwg := wd[wo:wo+gcOut*fanIn], dwd[wo:wo+gcOut*fanIn]
			switch kern {
			case convPointwise:
				tensor.MatMulTransBAccSlices(dwg, dy, img, gcOut, cols, fanIn)
				tensor.MatMulTransAAccSlices(dimg, wg, dy, gcOut, fanIn, cols)
			default:
				col := l.cols[(i*g+gi)*rows*cols : (i*g+gi+1)*rows*cols]
				tensor.MatMulTransBAccSlices(dwg, dy, col, gcOut, cols, fanIn)
				clear(l.dcol)
				tensor.MatMulTransAAccSlices(l.dcol, wg, dy, gcOut, fanIn, cols)
				tensor.Col2Im(dimg, l.dcol, d)
			}
		}
	}
	// db += Σ spatial dy per output channel, samples ascending. Row r of
	// sample i starts at gd[i·outStride + r·cols].
	for r := range dbd {
		dbd[r] = foldRowSums(dbd[r], gd[r*cols:], outStride, n, cols)
	}
	return dx
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
