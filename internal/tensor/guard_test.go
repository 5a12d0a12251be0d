package tensor

import (
	"fmt"
	"slices"
	"testing"
	"unsafe"

	"heteroswitch/internal/frand"
	"heteroswitch/internal/guardmem"
	"heteroswitch/internal/vec"
	"heteroswitch/internal/vectest"
)

// guarded copies v into memory that ends at an inaccessible page.
func guarded(t testing.TB, v []float32) []float32 {
	g := guardmem.Float32s(t, len(v))
	copy(g, v)
	return g
}

// TestVecPlaneKernelsStayInsideSlices runs the vector plane routines on
// operands that end at an inaccessible page: the stride-2 gather's wide side
// ends at element 2(n−1); the 3×3 forward's, input gradient's and weight
// gradient's plane fills a page exactly (32×32 float32s), guarded on both
// sides, with every pad's masked margin reads pointing into the guards; and
// both gradients run on 1–17 planes (the weight gradient's last pass of
// fewer than eight lanes among them) with every operand, scratch included,
// guarded.
func TestVecPlaneKernelsStayInsideSlices(t *testing.T) {
	vectest.Require(t)
	r := frand.New(79)
	for _, n := range []int{1, 2, 5, 7, 8, 9, 16, 20} {
		const rows = 3
		narrow, wide := n, 2*n+2
		img := vecOperand(r, (rows-1)*wide+2*n-1)
		y := guarded(t, vecOperand(r, rows*narrow))
		want := slices.Clone(y)
		for i := 0; i < rows; i++ {
			for j := 0; j < n; j++ {
				want[i*narrow+j] = img[i*wide+2*j]
			}
		}
		vec.Gather2(y, narrow, guarded(t, img), wide, rows, n)
		exactEqual(t, fmt.Sprintf("guarded gather n=%d", n), y, want)
	}
	plane := guarded(t, vecOperand(r, 32*32))
	for _, stride := range []int{1, 2} {
		for _, pad := range []int{0, 1, 2} {
			d, err := NewConvDims(1, 32, 32, 3, 3, stride, pad)
			if err != nil {
				t.Fatal(err)
			}
			dy := vecOperand(r, d.ColCols())
			want, got := make([]float32, 9), make([]float32, 9)
			refDepthwiseGradW(want, dy, plane, d)
			DepthwiseConvPlaneGradW(got, guarded(t, dy), plane, guarded(t, gradWScratch(d)), d)
			exactEqual(t, fmt.Sprintf("guarded dW s%d p%d", stride, pad), got, want)

			w := vecOperand(r, 9)
			vectest.SetLive(t, false)
			wantY := make([]float32, d.ColCols())
			DepthwiseConvPlane(wantY, plane, w, d, 0.5, true)
			wantX := vecOperand(r, 32*32)
			gotX := guarded(t, wantX)
			DepthwiseConvPlaneGradX(wantX, dy, w, d)
			vectest.SetLive(t, true)
			gotY := guarded(t, make([]float32, d.ColCols()))
			DepthwiseConvPlane(gotY, plane, guarded(t, w), d, 0.5, true)
			exactEqual(t, fmt.Sprintf("guarded forward s%d p%d", stride, pad), gotY, wantY)
			DepthwiseConvPlaneGradX(gotX, guarded(t, dy), guarded(t, w), d)
			exactEqual(t, fmt.Sprintf("guarded dx s%d p%d", stride, pad), gotX, wantX)
		}
	}
	for planes := 1; planes <= 17; planes++ {
		for _, stride := range []int{1, 2} {
			d, err := NewConvDims(1, 5, 7, 3, 3, stride, 1)
			if err != nil {
				t.Fatal(err)
			}
			in, cols := 5*7, d.ColCols()
			dy, img := vecOperand(r, planes*cols), vecOperand(r, planes*in)
			want := vecOperand(r, 9*planes)
			got := guarded(t, want)
			for c := 0; c < planes; c++ {
				refDepthwiseGradW(want[9*c:9*c+9], dy[c*cols:(c+1)*cols], img[c*in:(c+1)*in], d)
			}
			DepthwiseConvPlaneGradW(got, guarded(t, dy), guarded(t, img), guarded(t, gradWScratch(d)), d)
			exactEqual(t, fmt.Sprintf("guarded dW %d planes s%d", planes, stride), got, want)

			w := vecOperand(r, 9*planes)
			wantX := vecOperand(r, planes*in)
			gotX := guarded(t, wantX)
			for c := 0; c < planes; c++ {
				d.planeGradX(wantX[c*in:(c+1)*in], dy[c*cols:(c+1)*cols], w[9*c:9*c+9])
			}
			DepthwiseConvPlaneGradX(gotX, guarded(t, dy), guarded(t, w), d)
			exactEqual(t, fmt.Sprintf("guarded dx %d planes s%d", planes, stride), gotX, wantX)
		}
	}
}

// guarded64 copies v into float64 memory that ends at an inaccessible page
// (a guarded float32 slice of twice the length ends on a page boundary, so
// its last 8·len(v) bytes are 8-byte aligned).
func guarded64(t testing.TB, v []float64) []float64 {
	if len(v) == 0 {
		return nil
	}
	g := unsafe.Slice((*float64)(unsafe.Pointer(&guardmem.Float32s(t, 2*len(v))[0])), len(v))
	copy(g, v)
	return g
}

// TestVecSweepsStayInsideSlices runs the aggregation step's two sweeps on
// operands that each end at an inaccessible page, at every length through the
// 16-wide block, the 4-wide block and the Go tail: a convert that loaded four
// floats where fewer remain, or a 32-byte accumulator access past the end,
// faults here.
func TestVecSweepsStayInsideSlices(t *testing.T) {
	vectest.Require(t)
	r := frand.New(80)
	for n := 0; n <= 67; n++ {
		src, acc := foldSrc(r, n), foldAcc(r, n)
		want := slices.Clone(acc)
		vectest.SetLive(t, false)
		FoldScaled(want, src, -0.75)
		vectest.SetLive(t, true)
		got := guarded64(t, acc)
		FoldScaled(got, guarded(t, src), -0.75)
		nanClassEqual64(t, fmt.Sprintf("guarded fold n=%d", n), got, want)

		a, b := vecOperand(r, n), vecOperand(r, n)
		if got, want := SqDistLanes(0, guarded(t, a), guarded(t, b)), SqDistLanes(0, a, b); got != want {
			t.Fatalf("guarded squared distance n=%d: %v != %v", n, got, want)
		}
	}
}

// TestVecGemmStaysInsideSlices runs the GEMM on operands that each end at an
// inaccessible page, at every column tail n%8 around the 8- and 32-column
// blocks: a @ b through the fused store (bias, hard-swish), storing and
// accumulating, and aᵀ @ b accumulating. A masked tail load or store that
// reached one column past the last faults here.
func TestVecGemmStaysInsideSlices(t *testing.T) {
	vectest.Require(t)
	r := frand.New(81)
	const m, k = 3, 5
	for _, n := range []int{1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 31, 33, 39, 40, 41} {
		a, at, b := vecOperand(r, m*k), vecOperand(r, k*m), vecOperand(r, k*n)
		bias, base := vecOperand(r, m), vecOperand(r, m*n)
		for _, acc := range []bool{false, true} {
			vectest.SetLive(t, false)
			want := slices.Clone(base)
			gemmAB(want, a, b, m, k, n, acc, bias, vec.ActHardSwish)
			vectest.SetLive(t, true)
			got := guarded(t, base)
			vec.Gemm(got, n, guarded(t, a), k, 1, guarded(t, b), n, m, n, k, acc, guarded(t, bias), vec.ActHardSwish)
			exactEqual(t, fmt.Sprintf("guarded fused store n=%d acc %v", n, acc), got, want)
		}
		vectest.SetLive(t, false)
		want := slices.Clone(base)
		matMulTransAAccRange(want, at, b, k, m, n, 0, m)
		vectest.SetLive(t, true)
		got := guarded(t, base)
		vec.Gemm(got, n, guarded(t, at), 1, m, guarded(t, b), n, m, n, k, true, nil, vec.ActIdentity)
		exactEqual(t, fmt.Sprintf("guarded transposed a n=%d", n), got, want)
	}
}
