package nn

import (
	"fmt"

	"heteroswitch/internal/tensor"
)

// MaxPool2D performs kxk max pooling with the given stride on NCHW tensors.
type MaxPool2D struct {
	arenaScratch
	K, Stride int
	argmax    []int
	inShape   []int
}

// NewMaxPool2D builds a max-pool layer.
func NewMaxPool2D(k, stride int) *MaxPool2D { return &MaxPool2D{K: k, Stride: stride} }

// Forward implements Layer.
func (l *MaxPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	if h < l.K || w < l.K { // (h−K)/Stride would truncate a negative up to 0
		panic(fmt.Sprintf("nn: MaxPool2D k%d s%d on %dx%d", l.K, l.Stride, h, w))
	}
	oh := (h-l.K)/l.Stride + 1
	ow := (w-l.K)/l.Stride + 1
	l.inShape = x.Shape()
	out := l.allocUninit(n, c, oh, ow)
	need := n * c * oh * ow
	if cap(l.argmax) < need {
		l.argmax = make([]int, need)
	}
	l.argmax = l.argmax[:need]
	xd, od := x.Data(), out.Data()
	oi := 0
	for i := 0; i < n; i++ {
		for ci := 0; ci < c; ci++ {
			base := (i*c + ci) * h * w
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					iy0, ix0 := oy*l.Stride, ox*l.Stride
					best := xd[base+iy0*w+ix0]
					bestIdx := base + iy0*w + ix0
					for ky := 0; ky < l.K; ky++ {
						for kx := 0; kx < l.K; kx++ {
							idx := base + (iy0+ky)*w + (ix0 + kx)
							if xd[idx] > best {
								best, bestIdx = xd[idx], idx
							}
						}
					}
					od[oi] = best
					l.argmax[oi] = bestIdx
					oi++
				}
			}
		}
	}
	return out
}

// Backward implements Layer, routing each gradient to its argmax position.
// The gradient scatter accumulates, so dx starts zeroed.
func (l *MaxPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	dx := l.alloc(l.inShape...)
	dxd, gd := dx.Data(), grad.Data()
	for i, g := range gd {
		dxd[l.argmax[i]] += g
	}
	return dx
}

// Params implements Layer.
func (l *MaxPool2D) Params() []*Param { return nil }

// States implements Layer.
func (l *MaxPool2D) States() []*tensor.Tensor { return nil }

// Name implements Layer.
func (l *MaxPool2D) Name() string { return fmt.Sprintf("MaxPool2D(k%d,s%d)", l.K, l.Stride) }

// GlobalAvgPool collapses each channel's spatial extent to a single value,
// producing [N, C] from [N, C, H, W].
type GlobalAvgPool struct {
	arenaScratch
	inShape []int
}

// NewGlobalAvgPool builds a global average pooling layer.
func NewGlobalAvgPool() *GlobalAvgPool { return &GlobalAvgPool{} }

// Forward implements Layer.
func (l *GlobalAvgPool) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	l.inShape = x.Shape()
	out := l.allocUninit(n, c)
	planeMean(out.Data(), x.Data(), h*w)
	return out
}

// Backward implements Layer.
func (l *GlobalAvgPool) Backward(grad *tensor.Tensor) *tensor.Tensor {
	dx := l.allocUninit(l.inShape...)
	hw := l.inShape[2] * l.inShape[3]
	inv := 1 / float32(hw)
	dxd, gd := dx.Data(), grad.Data()
	for i, g := range gd {
		gg := g * inv
		for j := 0; j < hw; j++ {
			dxd[i*hw+j] = gg
		}
	}
	return dx
}

// Params implements Layer.
func (l *GlobalAvgPool) Params() []*Param { return nil }

// States implements Layer.
func (l *GlobalAvgPool) States() []*tensor.Tensor { return nil }

// Name implements Layer.
func (l *GlobalAvgPool) Name() string { return "GlobalAvgPool" }

// Flatten reshapes [N, ...] to [N, prod(...)]. It is a pure view change;
// the two view headers are cached on the layer so steady-state batches
// allocate nothing.
type Flatten struct {
	inShape  []int
	out, dxv *tensor.Tensor
}

// NewFlatten builds a flatten layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Forward implements Layer.
func (l *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	l.inShape = x.Shape()
	l.out = x.ReshapeInto(l.out, x.Dim(0), -1)
	return l.out
}

// Backward implements Layer.
func (l *Flatten) Backward(grad *tensor.Tensor) *tensor.Tensor {
	l.dxv = grad.ReshapeInto(l.dxv, l.inShape...)
	return l.dxv
}

// Params implements Layer.
func (l *Flatten) Params() []*Param { return nil }

// States implements Layer.
func (l *Flatten) States() []*tensor.Tensor { return nil }

// Name implements Layer.
func (l *Flatten) Name() string { return "Flatten" }
