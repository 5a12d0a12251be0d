package tensor

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"heteroswitch/internal/frand"
	"heteroswitch/internal/vectest"
)

func TestNewZeroFilled(t *testing.T) {
	x := New(2, 3)
	if x.Size() != 6 || x.NDim() != 2 || x.Dim(0) != 2 || x.Dim(1) != 3 {
		t.Fatalf("bad shape bookkeeping: %v size %d", x.Shape(), x.Size())
	}
	for _, v := range x.Data() {
		if v != 0 {
			t.Fatal("New not zero filled")
		}
	}
}

func TestFromSliceAliases(t *testing.T) {
	d := []float32{1, 2, 3, 4}
	x := FromSlice(d, 2, 2)
	d[0] = 9
	if x.At(0, 0) != 9 {
		t.Fatal("FromSlice must alias, not copy")
	}
}

func TestFromSlicePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestAtSetRowMajor(t *testing.T) {
	x := New(2, 3)
	x.Set(7, 1, 2)
	if x.Data()[5] != 7 {
		t.Fatalf("row-major layout violated: %v", x.Data())
	}
	if x.At(1, 2) != 7 {
		t.Fatal("At/Set roundtrip failed")
	}
}

func TestReshapeView(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	y := x.ReshapeInto(nil, 3, 2)
	y.Set(99, 0, 0)
	if x.At(0, 0) != 99 {
		t.Fatal("ReshapeInto must share data")
	}
	z := x.ReshapeInto(nil, -1, 2)
	if z.Dim(0) != 3 {
		t.Fatalf("inferred dim = %d, want 3", z.Dim(0))
	}
}

func TestCloneIndependent(t *testing.T) {
	x := Full(2, 3)
	y := x.Clone()
	y.Set(5, 0)
	if x.At(0) != 2 {
		t.Fatal("Clone must copy data")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3}, 3)
	b := FromSlice([]float32{4, 5, 6}, 3)
	if got := a.Add(b); !got.AllClose(FromSlice([]float32{5, 7, 9}, 3), 0) {
		t.Fatalf("Add = %v", got.Data())
	}
	if got := b.Sub(a); !got.AllClose(FromSlice([]float32{3, 3, 3}, 3), 0) {
		t.Fatalf("Sub = %v", got.Data())
	}
	c := a.Clone()
	c.Scale(2)
	if !c.AllClose(FromSlice([]float32{2, 4, 6}, 3), 0) {
		t.Fatalf("Scale = %v", c.Data())
	}
}

func TestAxpy(t *testing.T) {
	y := FromSlice([]float32{1, 1, 1}, 3)
	x := FromSlice([]float32{1, 2, 3}, 3)
	y.Axpy(2, x)
	if !y.AllClose(FromSlice([]float32{3, 5, 7}, 3), 0) {
		t.Fatalf("Axpy = %v", y.Data())
	}
}

func TestLerp(t *testing.T) {
	y := FromSlice([]float32{0, 0}, 2)
	x := FromSlice([]float32{10, 20}, 2)
	y.Lerp(0.25, x)
	if !y.AllClose(FromSlice([]float32{2.5, 5}, 2), 1e-6) {
		t.Fatalf("Lerp = %v", y.Data())
	}
}

func TestArgMaxRows(t *testing.T) {
	x := FromSlice([]float32{
		0.1, 0.9, 0.0,
		0.5, 0.2, 0.3,
	}, 2, 3)
	got := x.ArgMaxRows()
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("ArgMaxRows = %v", got)
	}
}

// Transpose2D is the materialized transpose the MatMulTrans* tests hold the
// transposed-operand kernels against.
func (t *Tensor) Transpose2D() *Tensor {
	if len(t.shape) != 2 {
		panic("tensor: Transpose2D needs 2-D tensor")
	}
	r, c := t.shape[0], t.shape[1]
	out := New(c, r)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			out.data[j*r+i] = t.data[i*c+j]
		}
	}
	return out
}

func TestTranspose2D(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	y := x.Transpose2D()
	if y.Dim(0) != 3 || y.Dim(1) != 2 || y.At(2, 1) != 6 || y.At(0, 1) != 4 {
		t.Fatalf("Transpose2D = %v %v", y.Shape(), y.Data())
	}
}

// mm returns a @ b as a new tensor: the allocating spelling the tests below
// read best with, on MatMulInto.
func mm(a, b *Tensor) *Tensor {
	out := New(a.Dim(0), b.Dim(1))
	MatMulInto(out, a, b)
	return out
}

// naiveMatMul is the reference implementation for testing the blocked kernel.
func naiveMatMul(a, b *Tensor) *Tensor {
	m, k := a.Dim(0), a.Dim(1)
	n := b.Dim(1)
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for x := 0; x < k; x++ {
				s += float64(a.At(i, x)) * float64(b.At(x, j))
			}
			out.Set(float32(s), i, j)
		}
	}
	return out
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float32{5, 6, 7, 8}, 2, 2)
	got := mm(a, b)
	want := FromSlice([]float32{19, 22, 43, 50}, 2, 2)
	if !got.AllClose(want, 1e-5) {
		t.Fatalf("a @ b = %v", got.Data())
	}
}

func TestMatMulMatchesNaive(t *testing.T) {
	r := frand.New(1)
	for _, dims := range [][3]int{{1, 1, 1}, {3, 5, 7}, {65, 64, 63}, {100, 33, 129}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := Randn(r, 1, m, k)
		b := Randn(r, 1, k, n)
		got := mm(a, b)
		want := naiveMatMul(a, b)
		if !got.AllClose(want, 1e-3) {
			t.Fatalf("a @ b %dx%dx%d diverges from naive", m, k, n)
		}
	}
}

func TestMatMulTransB(t *testing.T) {
	r := frand.New(2)
	a := Randn(r, 1, 7, 5)
	b := Randn(r, 1, 9, 5)
	got := New(7, 9)
	MatMulTransBInto(got, a, b)
	want := mm(a, b.Transpose2D())
	if !got.AllClose(want, 1e-4) {
		t.Fatal("MatMulTransBInto != a @ bT")
	}
}

func TestMatMulTransA(t *testing.T) {
	r := frand.New(3)
	a := Randn(r, 1, 8, 4)
	b := Randn(r, 1, 8, 6)
	got := New(4, 6)
	MatMulTransAAccInto(got, a, b)
	want := mm(a.Transpose2D(), b)
	if !got.AllClose(want, 1e-4) {
		t.Fatal("MatMulTransAAccInto != aT @ b")
	}
}

func TestMatMulAccInto(t *testing.T) {
	a := FromSlice([]float32{1, 0, 0, 1}, 2, 2)
	b := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	out := Ones(2, 2)
	matMulEp(out.Data(), a.Data(), b.Data(), 2, 2, 2, true, nil)
	want := FromSlice([]float32{2, 3, 4, 5}, 2, 2)
	if !out.AllClose(want, 1e-6) {
		t.Fatalf("out += a @ b = %v", out.Data())
	}
}

func TestConvDims(t *testing.T) {
	d, err := NewConvDims(3, 32, 32, 3, 3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.OutH != 32 || d.OutW != 32 {
		t.Fatalf("same-pad conv out %dx%d", d.OutH, d.OutW)
	}
	d, err = NewConvDims(3, 32, 32, 3, 3, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.OutH != 16 || d.OutW != 16 {
		t.Fatalf("stride-2 conv out %dx%d", d.OutH, d.OutW)
	}
	if _, err = NewConvDims(1, 2, 2, 5, 5, 1, 0); err == nil {
		t.Fatal("expected geometry error")
	}
}

// TestConvDimsRejectsBadGeometry: a stride, kernel or pad the plane kernels'
// ox-range arithmetic cannot handle is an error, not a divide-by-zero panic or
// a silently accepted output size.
func TestConvDimsRejectsBadGeometry(t *testing.T) {
	for _, c := range []struct {
		name                string
		kh, kw, stride, pad int
	}{
		{"stride 0", 3, 3, 0, 1},
		{"stride -1", 3, 3, -1, 1},
		{"kh 0", 0, 3, 1, 0},
		{"kw 0", 3, 0, 1, 0},
		{"k -1", -1, -1, 1, 0},
		{"pad -1", 3, 3, 1, -1},
	} {
		if d, err := NewConvDims(1, 8, 8, c.kh, c.kw, c.stride, c.pad); err == nil {
			t.Errorf("%s: accepted with output %dx%d, want an error", c.name, d.OutH, d.OutW)
		}
	}
}

func TestIm2ColIdentityKernel(t *testing.T) {
	// 1x1 kernel, stride 1, no pad: col matrix equals the image itself.
	d, _ := NewConvDims(2, 3, 3, 1, 1, 1, 0)
	img := make([]float32, 2*3*3)
	for i := range img {
		img[i] = float32(i)
	}
	col := make([]float32, d.ColRows()*d.ColCols())
	Im2Col(col, img, d)
	for i := range img {
		if col[i] != img[i] {
			t.Fatalf("1x1 im2col mismatch at %d", i)
		}
	}
}

func TestIm2ColPaddingZeros(t *testing.T) {
	d, _ := NewConvDims(1, 2, 2, 3, 3, 1, 1)
	img := []float32{1, 2, 3, 4}
	col := make([]float32, d.ColRows()*d.ColCols())
	Im2Col(col, img, d)
	// kernel tap (0,0) at output (0,0) looks at input (-1,-1): padding zero.
	if col[0] != 0 {
		t.Fatalf("padding tap should be 0, got %v", col[0])
	}
	// kernel center tap (1,1) row index = 1*3+1 = 4; at output (0,0) it reads input (0,0)=1.
	if col[4*d.ColCols()] != 1 {
		t.Fatalf("center tap wrong: %v", col[4*d.ColCols()])
	}
}

// TestIm2ColCol2ImAdjoint verifies <Im2Col(x), y> == <x, Col2Im(y)> — the
// defining property of an adjoint pair, which is exactly what correct
// convolution backprop requires.
func TestIm2ColCol2ImAdjoint(t *testing.T) {
	r := frand.New(7)
	cfgs := [][7]int{
		{1, 5, 5, 3, 3, 1, 1},
		{2, 8, 6, 3, 3, 2, 1},
		{3, 7, 7, 5, 5, 1, 2},
		{2, 6, 6, 2, 2, 2, 0},
	}
	for _, c := range cfgs {
		d, err := NewConvDims(c[0], c[1], c[2], c[3], c[4], c[5], c[6])
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float32, d.InC*d.InH*d.InW)
		for i := range x {
			x[i] = float32(r.NormFloat64())
		}
		y := make([]float32, d.ColRows()*d.ColCols())
		for i := range y {
			y[i] = float32(r.NormFloat64())
		}
		cx := make([]float32, len(y))
		Im2Col(cx, x, d)
		var lhs float64
		for i := range y {
			lhs += float64(cx[i]) * float64(y[i])
		}
		iy := make([]float32, len(x))
		Col2Im(iy, y, d)
		var rhs float64
		for i := range x {
			rhs += float64(x[i]) * float64(iy[i])
		}
		if math.Abs(lhs-rhs) > 1e-2*(1+math.Abs(lhs)) {
			t.Fatalf("adjoint mismatch for %v: %v vs %v", c, lhs, rhs)
		}
	}
}

func TestHasNaN(t *testing.T) {
	x := New(3)
	if x.HasNaN() {
		t.Fatal("zeros flagged as NaN")
	}
	x.Set(float32(math.NaN()), 1)
	if !x.HasNaN() {
		t.Fatal("NaN not detected")
	}
}

func TestClamp(t *testing.T) {
	x := FromSlice([]float32{-2, 0.5, 3}, 3)
	x.Clamp(0, 1)
	if !x.AllClose(FromSlice([]float32{0, 0.5, 1}, 3), 0) {
		t.Fatalf("Clamp = %v", x.Data())
	}
}

// Property: (a+b)-b ≈ a for random tensors.
func TestAddSubInverseProperty(t *testing.T) {
	r := frand.New(17)
	f := func(seed uint16) bool {
		rr := frand.New(uint64(seed))
		n := rr.Intn(32) + 1
		a := Randn(r, 1, n)
		b := Randn(r, 1, n)
		c := a.Add(b)
		c.SubInPlace(b)
		return c.AllClose(a, 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: MatMul distributes over addition: (a+b)@c == a@c + b@c.
func TestMatMulLinearityProperty(t *testing.T) {
	r := frand.New(19)
	f := func(seed uint16) bool {
		rr := frand.New(uint64(seed))
		m, k, n := rr.Intn(8)+1, rr.Intn(8)+1, rr.Intn(8)+1
		a := Randn(r, 1, m, k)
		b := Randn(r, 1, m, k)
		c := Randn(r, 1, k, n)
		lhs := mm(a.Add(b), c)
		rhs := mm(a, c)
		rhs.AddInPlace(mm(b, c))
		return lhs.AllClose(rhs, 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMatMul64(b *testing.B) {
	r := frand.New(1)
	x := Randn(r, 1, 64, 64)
	y := Randn(r, 1, 64, 64)
	out := New(64, 64)
	vectest.BenchArms(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			MatMulInto(out, x, y)
		}
	})
}

func BenchmarkMatMul256(b *testing.B) {
	r := frand.New(1)
	x := Randn(r, 1, 256, 256)
	y := Randn(r, 1, 256, 256)
	out := New(256, 256)
	vectest.BenchArms(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			MatMulInto(out, x, y)
		}
	})
}

func BenchmarkIm2Col32(b *testing.B) {
	d, _ := NewConvDims(16, 32, 32, 3, 3, 1, 1)
	img := make([]float32, d.InC*d.InH*d.InW)
	col := make([]float32, d.ColRows()*d.ColCols())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Im2Col(col, img, d)
	}
}

// Operations only the tests use.

// Add returns t + o elementwise as a new tensor.
func (t *Tensor) Add(o *Tensor) *Tensor {
	out := t.Clone()
	out.AddInPlace(o)
	return out
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

// Set writes the element at the given multi-index.
func (t *Tensor) Set(v float32, idx ...int) { t.data[t.offset(idx)] = v }
