package tensor

import (
	"fmt"
	"testing"

	"heteroswitch/internal/frand"
)

// Col2ImP promises BIT-identical results to the plain scatter (col2imRef) at
// every budget: image-column blocks own disjoint output pixels, and restricting
// the (c, ky, kx, oy, ox) sweep to a column range never reorders the adds
// into any one pixel. Geometries cover stride 1/2, pad 0/1/2, kernels 1-5,
// and widths that split raggedly across budgets.

var col2imGeoms = []struct {
	inC, inH, inW, k, stride, pad int
}{
	{1, 5, 5, 3, 1, 1},
	{3, 8, 8, 3, 1, 1},
	{2, 9, 13, 3, 2, 1},
	{4, 16, 16, 5, 1, 2},
	{1, 7, 31, 1, 1, 0},
	{8, 12, 10, 3, 2, 0},
	{2, 6, 64, 3, 1, 1}, // wide enough that every budget actually splits
}

// col2imRef is the plain (c, ky, kx, oy, ox) scatter with a per-element
// bounds check: the add order into every pixel that Col2ImP must reproduce.
func col2imRef(img, col []float32, d ConvDims) {
	cols := d.ColCols()
	row := 0
	for c := 0; c < d.InC; c++ {
		chanBase := c * d.InH * d.InW
		for ky := 0; ky < d.KH; ky++ {
			for kx := 0; kx < d.KW; kx++ {
				src := col[row*cols : (row+1)*cols]
				i := 0
				for oy := 0; oy < d.OutH; oy++ {
					iy := oy*d.StrideH - d.PadH + ky
					if iy < 0 || iy >= d.InH {
						i += d.OutW
						continue
					}
					rowBase := chanBase + iy*d.InW
					for ox := 0; ox < d.OutW; ox++ {
						ix := ox*d.StrideW - d.PadW + kx
						if ix >= 0 && ix < d.InW {
							img[rowBase+ix] += src[i]
						}
						i++
					}
				}
				row++
			}
		}
	}
}

func TestCol2ImPBitIdentical(t *testing.T) {
	r := frand.New(77)
	for _, g := range col2imGeoms {
		d, err := NewConvDims(g.inC, g.inH, g.inW, g.k, g.k, g.stride, g.pad)
		if err != nil {
			t.Fatal(err)
		}
		col := Randn(r, 1, d.ColRows(), d.ColCols())
		base := Randn(r, 1, g.inC, g.inH, g.inW) // non-zero: the scatter accumulates
		want := base.Clone()
		col2imRef(want.Data(), col.Data(), d)
		for _, par := range []int{1, 2, 3, 4, 8} {
			got := base.Clone()
			Col2ImP(par, got.Data(), col.Data(), d)
			name := fmt.Sprintf("Col2ImP(%d) c%d %dx%d k%d s%d p%d",
				par, g.inC, g.inH, g.inW, g.k, g.stride, g.pad)
			exactEqual(t, name, got.Data(), want.Data())
		}
	}
}

// TestCol2ImColsCoverage checks the column-restricted building block
// partitions exactly: the union over any split of [0, InW) equals the full
// scatter, with no tap dropped or double-counted.
func TestCol2ImColsCoverage(t *testing.T) {
	r := frand.New(78)
	for _, g := range col2imGeoms {
		d, err := NewConvDims(g.inC, g.inH, g.inW, g.k, g.k, g.stride, g.pad)
		if err != nil {
			t.Fatal(err)
		}
		col := Randn(r, 1, d.ColRows(), d.ColCols())
		want := New(g.inC, g.inH, g.inW)
		col2imRef(want.Data(), col.Data(), d)
		for _, splits := range [][]int{{0, g.inW}, {0, 1, g.inW}, {0, g.inW / 2, g.inW - 1, g.inW}} {
			got := New(g.inC, g.inH, g.inW)
			for i := 0; i+1 < len(splits); i++ {
				if splits[i] < splits[i+1] {
					col2imCols(got.Data(), col.Data(), d, splits[i], splits[i+1])
				}
			}
			exactEqual(t, fmt.Sprintf("col2imCols splits %v c%d w%d", splits, g.inC, g.inW),
				got.Data(), want.Data())
		}
	}
}

// TestMatMulEpilogueBitIdentical: the fused epilogue runs row-locally inside
// each chunk, so a fused kernel must equal the unfused kernel followed by
// the same per-row pass, bit for bit, at every budget. Pinned to the serial
// backend: this is the oracle fused path's contract; the packed backend's
// tolerance contract is covered in packed_test.go.
func TestMatMulEpilogueBitIdentical(t *testing.T) {
	forceBackend(t, BackendSerial)
	r := frand.New(79)
	for _, sz := range parShapes {
		a := Randn(r, 1, sz.m, sz.k)
		b := Randn(r, 1, sz.k, sz.n)
		bias := Randn(r, 1, sz.m)
		ep := &testEpilogue{bias: bias.Data()}
		want := New(sz.m, sz.n)
		matmulAcc(want.Data(), a.Data(), b.Data(), sz.m, sz.k, sz.n)
		for i := 0; i < sz.m; i++ {
			ep.Apply(want.Data()[i*sz.n:(i+1)*sz.n], i)
		}
		for _, par := range parBudgets {
			got := Randn(r, 1, sz.m, sz.n)
			matMulEp(par, got.Data(), a.Data(), b.Data(), sz.m, sz.k, sz.n, false, ep)
			exactEqual(t, fmt.Sprintf("matMulEp(%d) %dx%dx%d", par, sz.m, sz.k, sz.n),
				got.Data(), want.Data())
		}
	}
}

// testEpilogue is a bias-add + leaky clamp, enough to catch a skipped or
// double-applied row.
type testEpilogue struct{ bias []float32 }

func (e *testEpilogue) Apply(row []float32, r int) {
	b := e.bias[r]
	for j := range row {
		v := row[j] + b
		if v < 0 {
			v *= 0.5
		}
		row[j] = v
	}
}

// BenchmarkCol2ImParallel measures the column-blocked scatter on a large
// single-sample geometry (the case the ROADMAP called out) across budgets.
// Speedup requires physical cores; on a 1-core runner all budgets converge
// to the serial scatter.
func BenchmarkCol2ImParallel(b *testing.B) {
	d, err := NewConvDims(32, 64, 64, 3, 3, 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	r := frand.New(80)
	col := Randn(r, 1, d.ColRows(), d.ColCols())
	img := New(32, 64, 64)
	for _, par := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("intraop=%d", par), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Col2ImP(par, img.Data(), col.Data(), d)
			}
		})
	}
}
