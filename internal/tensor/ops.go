package tensor

import (
	"fmt"
	"math"
)

// Add returns t + o elementwise as a new tensor.
func (t *Tensor) Add(o *Tensor) *Tensor {
	out := t.Clone()
	out.AddInPlace(o)
	return out
}

// AddInPlace computes t += o elementwise.
func (t *Tensor) AddInPlace(o *Tensor) {
	if len(t.data) != len(o.data) {
		panic(fmt.Sprintf("tensor: AddInPlace size mismatch %v vs %v", t.shape, o.shape))
	}
	for i := range t.data {
		t.data[i] += o.data[i]
	}
}

// Sub returns t - o elementwise as a new tensor.
func (t *Tensor) Sub(o *Tensor) *Tensor {
	out := t.Clone()
	out.SubInPlace(o)
	return out
}

// SubInPlace computes t -= o elementwise.
func (t *Tensor) SubInPlace(o *Tensor) {
	if len(t.data) != len(o.data) {
		panic(fmt.Sprintf("tensor: SubInPlace size mismatch %v vs %v", t.shape, o.shape))
	}
	for i := range t.data {
		t.data[i] -= o.data[i]
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

// Apply replaces every element v with f(v).
func (t *Tensor) Apply(f func(float32) float32) {
	for i := range t.data {
		t.data[i] = f(t.data[i])
	}
}

// Clamp limits every element into [lo, hi] in place.
func (t *Tensor) Clamp(lo, hi float32) {
	for i := range t.data {
		v := t.data[i]
		if v < lo {
			v = lo
		} else if v > hi {
			v = hi
		}
		t.data[i] = v
	}
}

// Sum returns the sum of all elements (accumulated in float64 for accuracy).
func (t *Tensor) Sum() float64 {
	var s float64
	for _, v := range t.data {
		s += float64(v)
	}
	return s
}

// Mean returns the arithmetic mean of all elements; 0 for an empty tensor.
func (t *Tensor) Mean() float64 {
	if len(t.data) == 0 {
		return 0
	}
	return t.Sum() / float64(len(t.data))
}

// Max returns the maximum element. Panics on an empty tensor.
func (t *Tensor) Max() float32 {
	if len(t.data) == 0 {
		panic("tensor: Max of empty tensor")
	}
	m := t.data[0]
	for _, v := range t.data[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Min returns the minimum element. Panics on an empty tensor.
func (t *Tensor) Min() float32 {
	if len(t.data) == 0 {
		panic("tensor: Min of empty tensor")
	}
	m := t.data[0]
	for _, v := range t.data[1:] {
		if v < m {
			m = v
		}
	}
	return m
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

// Slice returns a view of rows [lo, hi) along the first dimension. Shares
// data with t.
func (t *Tensor) Slice(lo, hi int) *Tensor {
	if len(t.shape) == 0 {
		panic("tensor: Slice of scalar")
	}
	if lo < 0 || hi > t.shape[0] || lo > hi {
		panic(fmt.Sprintf("tensor: Slice [%d,%d) of dim %d", lo, hi, t.shape[0]))
	}
	inner := 1
	for _, d := range t.shape[1:] {
		inner *= d
	}
	s := make([]int, len(t.shape))
	copy(s, t.shape)
	s[0] = hi - lo
	return &Tensor{shape: s, data: t.data[lo*inner : hi*inner]}
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
