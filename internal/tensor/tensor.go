// Package tensor implements dense row-major float32 tensors and the numeric
// kernels (elementwise ops, blocked matrix multiply, im2col) that the neural
// network stack in internal/nn is built on.
//
// Tensors are deliberately simple: a shape and a flat []float32 buffer.
// Layout is row-major (C order); images use NCHW. Most operations come in an
// allocating form and an in-place/into form so hot training loops can reuse
// buffers.
//
// Shape errors are programmer errors, so the hot-path kernels panic on
// mismatched shapes rather than returning errors; public entry points in
// higher layers validate dimensions up front.
package tensor

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"heteroswitch/internal/frand"
)

// Tensor is a dense row-major float32 array with an explicit shape.
type Tensor struct {
	shape []int
	data  []float32
}

// New allocates a zero-filled tensor with the given shape. A zero-dimensional
// call (no arguments) produces a scalar tensor of size 1.
//
// Only the copied shape slice `s` is referenced below (including in the
// panic message): referencing the variadic parameter from an escaping
// context would force every caller to heap-allocate its shape literal, which
// matters for the arena fast path.
func New(shape ...int) *Tensor {
	s := make([]int, len(shape))
	copy(s, shape)
	n := 1
	for _, d := range s {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, s))
		}
		n *= d
	}
	return &Tensor{shape: s, data: make([]float32, n)}
}

// FromSlice wraps the given data in a tensor of the given shape. The data is
// NOT copied; the tensor aliases it. It panics if len(data) does not match
// the shape's element count.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: FromSlice data length %d != shape %v size %d", len(data), shape, n))
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{shape: s, data: data}
}

// Full returns a tensor of the given shape with every element set to v.
func Full(v float32, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// Ones returns a tensor of ones.
func Ones(shape ...int) *Tensor { return Full(1, shape...) }

// Randn fills a new tensor with N(0, std) variates from r.
func Randn(r *frand.RNG, std float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = float32(r.NormFloat64() * std)
	}
	return t
}

// Shape returns the tensor's shape. The returned slice must not be mutated.
func (t *Tensor) Shape() []int { return t.shape }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// NDim returns the number of dimensions.
func (t *Tensor) NDim() int { return len(t.shape) }

// Size returns the total number of elements.
func (t *Tensor) Size() int { return len(t.data) }

// Data returns the underlying flat buffer. Mutations are visible to the
// tensor. Row-major order.
func (t *Tensor) Data() []float32 { return t.data }

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i, d := range t.shape {
		if o.shape[i] != d {
			return false
		}
	}
	return true
}

// ReshapeInto returns a view of t with a new shape of the same total size,
// sharing t's data; one dimension may be -1 to infer its size. When view is
// non-nil, its header and shape slice are reused instead of allocating a
// fresh view, and view is repointed at t's data. Reshape-style layers call it
// with a cached header so per-batch view changes cost no allocation. The
// returned tensor (view itself when non-nil) aliases t's data; any previous
// aliasing of view is overwritten.
func (t *Tensor) ReshapeInto(view *Tensor, shape ...int) *Tensor {
	if view == nil {
		view = &Tensor{}
	}
	if cap(view.shape) >= len(shape) {
		view.shape = view.shape[:len(shape)]
	} else {
		view.shape = make([]int, len(shape))
	}
	// Error paths reference the copied view.shape, not the variadic
	// parameter, so callers' shape literals stay on the stack.
	n, infer := 1, -1
	for i, d := range shape {
		if d == -1 {
			if infer >= 0 {
				panic("tensor: Reshape with multiple -1 dims")
			}
			infer = i
		} else {
			n *= d
		}
		view.shape[i] = d
	}
	if infer >= 0 {
		if n == 0 || len(t.data)%n != 0 {
			panic(fmt.Sprintf("tensor: cannot infer dim for reshape %v of size %d", view.shape, len(t.data)))
		}
		view.shape[infer] = len(t.data) / n
		n *= view.shape[infer]
	}
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: reshape %v incompatible with size %d", view.shape, len(t.data)))
	}
	view.data = t.data
	return view
}

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// CopyFrom copies o's data into t. Panics on shape-size mismatch.
func (t *Tensor) CopyFrom(o *Tensor) {
	if len(t.data) != len(o.data) {
		panic("tensor: CopyFrom size mismatch")
	}
	copy(t.data, o.data)
}

// Zero sets all elements to 0.
func (t *Tensor) Zero() {
	for i := range t.data {
		t.data[i] = 0
	}
}

// Fill sets all elements to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.data {
		t.data[i] = v
	}
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float32 { return t.data[t.offset(idx)] }

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index %v for shape %v", idx, t.shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// String renders a short description (shape + a few leading values).
func (t *Tensor) String() string {
	n := len(t.data)
	if n > 8 {
		n = 8
	}
	return fmt.Sprintf("Tensor%v%v…", t.shape, t.data[:n])
}

// HasNaN reports whether any element is NaN or infinite.
func (t *Tensor) HasNaN() bool {
	for _, v := range t.data {
		f := float64(v)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return true
		}
	}
	return false
}

// WriteTo serializes the tensor (shape + raw little-endian float32 data).
func (t *Tensor) WriteTo(w io.Writer) (int64, error) {
	var written int64
	hdr := make([]byte, 4+4*len(t.shape))
	binary.LittleEndian.PutUint32(hdr, uint32(len(t.shape)))
	for i, d := range t.shape {
		binary.LittleEndian.PutUint32(hdr[4+4*i:], uint32(d))
	}
	n, err := w.Write(hdr)
	written += int64(n)
	if err != nil {
		return written, err
	}
	buf := make([]byte, 4*len(t.data))
	for i, v := range t.data {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
	}
	n, err = w.Write(buf)
	written += int64(n)
	return written, err
}

// readChunk is the number of elements ReadFrom decodes per read.
const readChunk = 4096

// ReadFrom deserializes a tensor previously written with WriteTo, replacing
// t's shape and contents.
func (t *Tensor) ReadFrom(r io.Reader) (int64, error) {
	var read int64
	var ndims [4]byte
	n, err := io.ReadFull(r, ndims[:])
	read += int64(n)
	if err != nil {
		return read, err
	}
	nd := int(binary.LittleEndian.Uint32(ndims[:]))
	if nd > 8 {
		return read, fmt.Errorf("tensor: implausible ndim %d", nd)
	}
	shapeBuf := make([]byte, 4*nd)
	n, err = io.ReadFull(r, shapeBuf)
	read += int64(n)
	if err != nil {
		return read, err
	}
	shape := make([]int, nd)
	size := 1
	for i := range shape {
		d := int(binary.LittleEndian.Uint32(shapeBuf[4*i:]))
		if d < 0 || (d > 0 && size > math.MaxInt32/d) {
			return read, fmt.Errorf("tensor: implausible shape: dimension %d of %d overflows the element count", i, nd)
		}
		shape[i] = d
		size *= d
	}
	// The header is untrusted, so memory follows the bytes actually present:
	// the payload is decoded a chunk at a time into a slice that doubles up
	// to size, and a header promising more than the stream holds fails in
	// ReadFull having allocated no more than about twice what it read.
	chunk := min(size, readChunk)
	buf := make([]byte, 4*chunk)
	data := make([]float32, 0, chunk)
	for len(data) < size {
		b := buf[:4*min(size-len(data), chunk)]
		n, err = io.ReadFull(r, b)
		read += int64(n)
		if err != nil {
			return read, err
		}
		if len(data) == cap(data) {
			data = append(make([]float32, 0, min(size, 2*cap(data))), data...)
		}
		for i := 0; i < len(b); i += 4 {
			data = append(data, math.Float32frombits(binary.LittleEndian.Uint32(b[i:])))
		}
	}
	t.shape = shape
	t.data = data
	return read, nil
}
