package tensor

import (
	"fmt"
	"slices"
	"testing"

	"heteroswitch/internal/frand"
	"heteroswitch/internal/vec"
	"heteroswitch/internal/vectest"
)

// The three direct depthwise plane kernels promise BIT-identical results to
// the lowered path on one channel plane: forward vs. Im2Col + MatMulSlices,
// the weight gradient vs. Im2Col + MatMulTransBAccSlices, the input gradient
// vs. MatMulTransAAccSlices + Col2Im. The sweep covers kernels 1/3/5, strides
// 1/2, pads 0/1/2 on odd non-square planes whose widths are not multiples of
// the matmul kernels' 4-wide tile (plus two planes smaller than the kernel),
// with a zero tap in every weight vector so the zero-skip branches run.
func TestDepthwisePlaneKernelsMatchLowered(t *testing.T) {
	vectest.BothSettings(t, testDepthwisePlaneKernelsMatchLowered)
}

func testDepthwisePlaneKernelsMatchLowered(t *testing.T) {
	r := frand.New(131)
	// The 1×1 and 2×3 planes have taps that never land inside the image.
	for _, hw := range [][2]int{{7, 11}, {9, 5}, {13, 10}, {1, 1}, {2, 3}} {
		for _, k := range []int{1, 3, 5} {
			for _, stride := range []int{1, 2} {
				for _, pad := range []int{0, 1, 2} {
					d, err := NewConvDims(1, hw[0], hw[1], k, k, stride, pad)
					if err != nil {
						continue // kernel larger than the padded plane
					}
					name := fmt.Sprintf("%dx%d k%d s%d p%d", hw[0], hw[1], k, stride, pad)
					taps, cols := d.ColRows(), d.ColCols()
					img := Randn(r, 1, hw[0]*hw[1]).Data()
					w := Randn(r, 1, taps).Data()
					w[taps/2] = 0
					dy := Randn(r, 1, cols).Data()
					col := make([]float32, taps*cols)
					Im2Col(col, img, &d)

					want := make([]float32, cols)
					MatMulSlices(want, w, col, 1, taps, cols, nil)
					got := Randn(r, 1, cols).Data() // junk: the kernel must overwrite
					DepthwiseConvPlane(got, img, w, &d, []float32{0}, vec.ActIdentity)
					exactEqual(t, name+" forward", got, want)

					seed := Randn(r, 1, taps).Data() // both accumulate onto the same junk
					want = slices.Clone(seed)
					MatMulTransBAccSlices(want, dy, col, 1, cols, taps)
					got = slices.Clone(seed)
					DepthwiseConvPlaneGradW(got, dy, img, gradWScratch(d), &d)
					exactEqual(t, name+" dW", got, want)

					dcol := make([]float32, taps*cols)
					MatMulTransAAccSlices(dcol, w, dy, 1, taps, cols)
					want = make([]float32, len(img))
					Col2Im(want, dcol, &d)
					got = make([]float32, len(img))
					DepthwiseConvPlaneGradX(got, dy, w, &d)
					exactEqual(t, name+" dx", got, want)
				}
			}
		}
	}
}
