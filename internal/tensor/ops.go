package tensor

import (
	"fmt"
	"math"

	"heteroswitch/internal/vec"
)

// AddInPlace computes t += o elementwise; with vec.Live set, vec.Add does,
// keeping t's NaN where both operands are NaN, as the Go loop does.
func (t *Tensor) AddInPlace(o *Tensor) {
	if len(t.data) != len(o.data) {
		panic(fmt.Sprintf("tensor: AddInPlace size mismatch %v vs %v", t.shape, o.shape))
	}
	if vec.Live {
		vec.Add(t.data, t.data, o.data)
		return
	}
	for i := range t.data {
		t.data[i] += o.data[i]
	}
}

// Scale multiplies every element by a in place.
func (t *Tensor) Scale(a float32) {
	for i := range t.data {
		t.data[i] *= a
	}
}

// Axpy computes t += a*x elementwise (the BLAS axpy). Panics on size
// mismatch. This is the workhorse of federated aggregation.
func (t *Tensor) Axpy(a float32, x *Tensor) {
	if len(t.data) != len(x.data) {
		panic(fmt.Sprintf("tensor: Axpy size mismatch %v vs %v", t.shape, x.shape))
	}
	for i := range t.data {
		t.data[i] += a * x.data[i]
	}
}

// Lerp sets t = (1-a)*t + a*x, the convex combination used by EMA and SWA
// style weight averaging.
func (t *Tensor) Lerp(a float32, x *Tensor) {
	if len(t.data) != len(x.data) {
		panic("tensor: Lerp size mismatch")
	}
	b := 1 - a
	for i := range t.data {
		t.data[i] = b*t.data[i] + a*x.data[i]
	}
}

// ArgMaxRows treats t as a [rows, cols] matrix and returns the column index
// of the max element in each row. Used for classification decisions.
func (t *Tensor) ArgMaxRows() []int {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: ArgMaxRows needs 2-D tensor, have %v", t.shape))
	}
	rows, cols := t.shape[0], t.shape[1]
	out := make([]int, rows)
	for r := 0; r < rows; r++ {
		base := r * cols
		best, bi := t.data[base], 0
		for c := 1; c < cols; c++ {
			if t.data[base+c] > best {
				best, bi = t.data[base+c], c
			}
		}
		out[r] = bi
	}
	return out
}

// AllClose reports whether all elements of t and o differ by at most tol.
func (t *Tensor) AllClose(o *Tensor, tol float64) bool {
	if len(t.data) != len(o.data) {
		return false
	}
	for i := range t.data {
		if math.Abs(float64(t.data[i])-float64(o.data[i])) > tol {
			return false
		}
	}
	return true
}

// HardSigmoid is clip((v+3)/6, 0, 1), MobileNetV3's cheap sigmoid; hard-swish
// is v·HardSigmoid(v). The vector kernels' HARDSIG is this function lane by
// lane.
func HardSigmoid(v float32) float32 {
	s := (v + 3) / 6
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

// BiasAct computes y[j] = act(y[j] + bias) over one output row: the conv
// epilogue wherever no vector store carries it, and the Go form of the
// vector GEMM's store epilogue.
func BiasAct(y []float32, bias float32, act vec.Act) {
	if vec.Live {
		b := [1]float32{bias}
		vec.BiasAct(y, 1, len(y), b[:], act)
		return
	}
	switch act {
	case vec.ActIdentity:
		for j := range y {
			y[j] += bias
		}
	case vec.ActReLU:
		for j, v := range y {
			if v += bias; v > 0 {
				y[j] = v
			} else {
				y[j] = 0
			}
		}
	default:
		for j, v := range y {
			v += bias
			y[j] = v * HardSigmoid(v)
		}
	}
}
