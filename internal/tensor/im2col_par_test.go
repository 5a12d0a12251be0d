package tensor

import (
	"fmt"
	"testing"

	"heteroswitch/internal/frand"
	"heteroswitch/internal/parallel"
)

// Col2Im promises BIT-identical results to the plain scatter (col2imRef):
// clipping each tap row's ox range to the image never reorders the adds into
// any one pixel. Geometries cover stride 1/2, pad 0/1/2 and kernels 1-5.

var col2imGeoms = []struct {
	inC, inH, inW, k, stride, pad int
}{
	{1, 5, 5, 3, 1, 1},
	{3, 8, 8, 3, 1, 1},
	{2, 9, 13, 3, 2, 1},
	{4, 16, 16, 5, 1, 2},
	{1, 7, 31, 1, 1, 0},
	{8, 12, 10, 3, 2, 0},
	{2, 6, 64, 3, 1, 1},
}

// col2imRef is the plain (c, ky, kx, oy, ox) scatter with a per-element
// bounds check: the add order into every pixel that Col2Im must reproduce.
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

func TestCol2ImBitIdentical(t *testing.T) {
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
		got := base.Clone()
		Col2Im(got.Data(), col.Data(), d)
		name := fmt.Sprintf("Col2Im c%d %dx%d k%d s%d p%d", g.inC, g.inH, g.inW, g.k, g.stride, g.pad)
		exactEqual(t, name, got.Data(), want.Data())
	}
}

// TestMatMulEpilogueBitIdentical: the fused epilogue runs row-locally inside
// each chunk, so a fused kernel must equal the unfused kernel followed by
// the same per-row pass, bit for bit, at every budget. Pinned to the serial
// backend: this is the oracle fused path's contract; the packed backend's
// tolerance contract is covered in packed_test.go.
func TestMatMulEpilogueBitIdentical(t *testing.T) {
	forceBackend(t, BackendSerial)
	requireSplit(t, 64, 64, 256)
	if c := parallel.Chunks(3, 100, mmGrain(64, 256)); c != 3 {
		t.Fatalf("100x64x256 runs in %d chunk(s) at budget 3; the test needs 3 ragged ones", c)
	}
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
