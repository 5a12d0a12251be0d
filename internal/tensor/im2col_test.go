package tensor

import (
	"fmt"
	"testing"

	"heteroswitch/internal/frand"
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
