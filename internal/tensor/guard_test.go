package tensor

import (
	"fmt"
	"slices"
	"testing"
	"unsafe"

	"heteroswitch/internal/frand"
	"heteroswitch/internal/guardmem"
	"heteroswitch/internal/vec"
)

// guarded copies v into memory that ends at an inaccessible page.
func guarded(t testing.TB, v []float32) []float32 {
	g := guardmem.Float32s(t, len(v))
	copy(g, v)
	return g
}

// TestVecPlaneKernelsStayInsideSlices runs the vector plane routines on
// operands that end at an inaccessible page: the stride-2 taps' wide side
// ends at element 2(n−1), and the 3×3 weight gradient's plane fills a page
// exactly (32×32 float32s), guarded on both sides, with every pad's masked
// margin reads pointing into the guards.
func TestVecPlaneKernelsStayInsideSlices(t *testing.T) {
	requireVec(t)
	r := frand.New(79)
	for _, n := range []int{1, 2, 5, 7, 8, 9, 16, 20} {
		const rows = 3
		narrow, wide := n, 2*n+2
		img := vecOperand(r, (rows-1)*wide+2*n-1)
		y := vecOperand(r, rows*narrow)
		want := slices.Clone(y)
		for i := 0; i < rows; i++ {
			for j := 0; j < n; j++ {
				want[i*narrow+j] += 0.75 * img[i*wide+2*j]
			}
		}
		vec.AxpyGather2(y, narrow, guarded(t, img), wide, 0.75, rows, n)
		exactEqual(t, fmt.Sprintf("guarded gather n=%d", n), y, want)

		dimg := vecOperand(r, (rows-1)*wide+2*n-1)
		want = slices.Clone(dimg)
		for i := 0; i < rows; i++ {
			for j := 0; j < n; j++ {
				want[i*wide+2*j] += 0.75 * y[i*narrow+j]
			}
		}
		got := guarded(t, dimg)
		vec.AxpyScatter2(got, wide, y, narrow, 0.75, rows, n)
		exactEqual(t, fmt.Sprintf("guarded scatter n=%d", n), got, want)
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
			DepthwiseConvPlaneGradW(got, dy, plane, d)
			exactEqual(t, fmt.Sprintf("guarded dW s%d p%d", stride, pad), got, want)
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
	requireVec(t)
	r := frand.New(80)
	for n := 0; n <= 67; n++ {
		src, acc := foldSrc(r, n), foldAcc(r, n)
		want := slices.Clone(acc)
		setVecLive(t, false)
		FoldScaled(want, src, -0.75)
		setVecLive(t, true)
		got := guarded64(t, acc)
		FoldScaled(got, guarded(t, src), -0.75)
		exactEqual64(t, fmt.Sprintf("guarded fold n=%d", n), got, want)

		a, b := vecOperand(r, n), vecOperand(r, n)
		if got, want := SqDistLanes(0, guarded(t, a), guarded(t, b)), SqDistLanes(0, a, b); got != want {
			t.Fatalf("guarded squared distance n=%d: %v != %v", n, got, want)
		}
	}
}
