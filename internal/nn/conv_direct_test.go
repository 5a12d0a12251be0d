package nn

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"heteroswitch/internal/frand"
	"heteroswitch/internal/israce"
	"heteroswitch/internal/tensor"
	"heteroswitch/internal/vectest"
)

// Conv2D's pointwise and depthwise layers skip the im2col lowering in all
// three passes; the contract is that nothing else changes. loweredConv below
// is the lowering every geometry used to take, kept here as the oracle: out,
// dx, dW and db of the layer must match it bit for bit at every batch size.

// loweredConv runs one forward + backward of l's geometry and weights through
// im2col + the oracle matmuls + col2im, samples ascending, accumulating dW/db
// onto the given seeds.
func loweredConv(l *Conv2D, x, dy *tensor.Tensor, dW, db []float32) (out, dx []float32) {
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	g := l.Groups
	gcIn, gcOut := l.InC/g, l.OutC/g
	d, err := tensor.NewConvDims(gcIn, h, w, l.KH, l.KW, l.Stride, l.Pad)
	if err != nil {
		panic(err)
	}
	rows, cols := d.ColRows(), d.ColCols()
	xd, gd, wd, bd := x.Data(), dy.Data(), l.W.W.Data(), l.B.W.Data()
	out = make([]float32, n*l.OutC*cols)
	dx = make([]float32, len(xd))
	col := make([]float32, rows*cols)
	dcol := make([]float32, rows*cols)
	for i := 0; i < n; i++ {
		for gi := 0; gi < g; gi++ {
			img := xd[(i*l.InC+gi*gcIn)*h*w : (i*l.InC+(gi+1)*gcIn)*h*w]
			wg := wd[gi*gcOut*rows : (gi+1)*gcOut*rows]
			o := (i*l.OutC + gi*gcOut) * cols
			y, gy := out[o:o+gcOut*cols], gd[o:o+gcOut*cols]
			tensor.Im2Col(col, img, d)
			tensor.MatMulSlices(y, wg, col, gcOut, rows, cols, nil)
			for oc := 0; oc < gcOut; oc++ {
				var s float32
				for j := oc * cols; j < (oc+1)*cols; j++ {
					y[j] += bd[gi*gcOut+oc]
					s += gy[j]
				}
				db[gi*gcOut+oc] += s
			}
			tensor.MatMulTransBAccSlices(dW[gi*gcOut*rows:(gi+1)*gcOut*rows], gy, col, gcOut, cols, rows)
			clear(dcol)
			tensor.MatMulTransAAccSlices(dcol, wg, gy, gcOut, rows, cols)
			tensor.Col2Im(dx[(i*l.InC+gi*gcIn)*h*w:(i*l.InC+(gi+1)*gcIn)*h*w], dcol, d)
		}
	}
	return out, dx
}

func TestConv2DMatchesLoweredReference(t *testing.T) {
	vectest.BothSettings(t, testConv2DMatchesLoweredReference)
}

func testConv2DMatchesLoweredReference(t *testing.T) {
	for _, c := range []struct {
		name                                  string
		inC, outC, k, stride, pad, groups, hw int
		kernel                                convKernel
	}{
		{"pointwise", 8, 24, 1, 1, 0, 1, 16, convPointwise},
		{"pointwise-grouped", 6, 9, 1, 1, 0, 3, 7, convPointwise},
		{"depthwise-s1", 16, 16, 3, 1, 1, 16, 16, convDepthwise},
		{"depthwise-s2", 24, 24, 3, 2, 1, 24, 15, convDepthwise},
		{"depthwise-k5", 5, 5, 5, 1, 2, 5, 9, convDepthwise},
		{"depthwise-1x1", 4, 4, 1, 1, 0, 4, 6, convDepthwise},
		{"grouped", 8, 12, 3, 1, 1, 4, 11, convLowered}, // ShuffleNet-style
		{"stem", 3, 8, 3, 2, 1, 1, 32, convLowered},
		{"1x1-strided", 4, 6, 1, 2, 0, 1, 9, convLowered},
	} {
		for _, n := range []int{1, 3} {
			name := fmt.Sprintf("%s/n%d", c.name, n)
			l := NewConv2D(frand.New(5), c.inC, c.outC, c.k, c.stride, c.pad, c.groups)
			if l.kernel() != c.kernel {
				t.Fatalf("%s: kernel() = %d, want %d", name, l.kernel(), c.kernel)
			}
			r := frand.New(9)
			l.B.W.CopyFrom(tensor.Randn(r, 1, c.outC))
			wd := l.W.W.Data()
			for i := 0; i < len(wd); i += 5 {
				wd[i] = 0 // exercise the kernels' zero-skip branches
			}
			x := tensor.Randn(r, 1, n, c.inC, c.hw, c.hw+1)
			out := l.Forward(x, true)
			dy := tensor.Randn(r, 1, out.Shape()...)
			// Junk in the accumulators catches a kernel that overwrites.
			l.W.Grad.CopyFrom(tensor.Randn(r, 1, l.W.Grad.Shape()...))
			l.B.Grad.CopyFrom(tensor.Randn(r, 1, c.outC))
			wantW := slices.Clone(l.W.Grad.Data())
			wantB := slices.Clone(l.B.Grad.Data())
			wantOut, wantDx := loweredConv(l, x, dy, wantW, wantB)
			dx := l.Backward(dy)
			exactSlice(t, name+"/out", out.Data(), wantOut)
			exactSlice(t, name+"/dx", dx.Data(), wantDx)
			exactSlice(t, name+"/dW", l.W.Grad.Data(), wantW)
			exactSlice(t, name+"/db", l.B.Grad.Data(), wantB)
			wantDcol := 0 // the depthwise dW's plane copy shares dcol
			if c.kernel == convDepthwise {
				wantDcol = l.dims.DepthwiseGradWScratch()
			}
			if c.kernel != convLowered && (l.cols != nil || len(l.dcol) != wantDcol) {
				t.Fatalf("%s: direct layer sized its column cache (cols %d, dcol %d, want %d)", name, len(l.cols), len(l.dcol), wantDcol)
			}
		}
	}
}

func exactSlice(t *testing.T, name string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) { // bits: tells -0 from +0
			t.Fatalf("%s: element %d differs: %v != %v (must be bit-identical)", name, i, got[i], want[i])
		}
	}
}

// convOnlyNet stacks one conv of every kernel family, stem first.
func convOnlyNet(r *frand.RNG) *Network {
	return NewNetwork(
		NewConv2D(r, 3, 8, 3, 2, 1, 1),
		NewConv2D(r, 8, 16, 1, 1, 0, 1),
		NewDepthwiseConv2D(r, 16, 3, 1, 1),
		NewConv2D(r, 16, 8, 3, 1, 1, 4),
		NewDepthwiseConv2D(r, 8, 3, 2, 1),
		NewConv2D(r, 8, 4, 1, 1, 0, 2),
	)
}

// TestConvTrainForwardMatchesFrozenSerial: with no BN to fold and no
// activation to fuse, the training forward and the frozen program run the
// same kernels per geometry on the oracle backend — bit-identical outputs.
func TestConvTrainForwardMatchesFrozenSerial(t *testing.T) {
	r := frand.New(21)
	net := convOnlyNet(r)
	fz := net.Freeze()
	for _, n := range []int{1, 3} {
		x := tensor.Randn(r, 1, n, 3, 17, 13)
		want := fz.Infer(x).Clone()
		exactSlice(t, fmt.Sprintf("n%d", n), net.Forward(x, true).Data(), want.Data())
	}
}

// TestConvTrainStepAllocFree: after a warm-up batch, forward + backward over
// every conv kernel family allocates nothing (arena tensors, cached column
// scratch only where the lowered path needs it).
func TestConvTrainStepAllocFree(t *testing.T) {
	if israce.Enabled {
		t.Skip("sync.Pool drops items randomly under -race; alloc counts are nondeterministic")
	}
	r := frand.New(22)
	net := convOnlyNet(r)
	x := tensor.Randn(r, 1, 4, 3, 16, 16)
	dy := tensor.Randn(r, 1, net.Forward(x, true).Shape()...)
	step := func() {
		net.Forward(x, true)
		net.Backward(dy)
	}
	step()
	if avg := testing.AllocsPerRun(20, step); avg != 0 {
		t.Fatalf("conv train step allocates %.1f objects in steady state, want 0", avg)
	}
}

func TestNewConv2DRejectsBadGeometry(t *testing.T) {
	for _, c := range []struct{ k, stride, pad int }{{3, 0, 1}, {0, 1, 0}, {3, 1, -1}} {
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				want := fmt.Sprintf("k=%d stride=%d pad=%d", c.k, c.stride, c.pad)
				if !strings.Contains(msg, want) {
					t.Errorf("NewConv2D(k=%d, stride=%d, pad=%d) panic %q, want the geometry %q in it",
						c.k, c.stride, c.pad, msg, want)
				}
			}()
			NewConv2D(frand.New(1), 4, 4, c.k, c.stride, c.pad, 1)
		}()
	}
}

// BenchmarkConv2DTrain times one forward + backward at batch 10 on
// TinyMobileNetV3's largest layer of each kernel family, plus a grouped 3×3
// as the lowered path's second shape and the squeeze-excite block of its
// first bottleneck (se: 16 channels of 16×16, hidden width 4).
func BenchmarkConv2DTrain(b *testing.B) {
	conv := func(inC, outC, k, stride, pad, groups int) func(r *frand.RNG) Layer {
		return func(r *frand.RNG) Layer { return NewConv2D(r, inC, outC, k, stride, pad, groups) }
	}
	for _, c := range []struct {
		name    string
		inC, hw int
		build   func(r *frand.RNG) Layer
	}{
		{"stem", 3, 32, conv(3, 8, 3, 2, 1, 1)},
		{"pw", 8, 16, conv(8, 24, 1, 1, 0, 1)},
		{"dw", 16, 16, conv(16, 16, 3, 1, 1, 16)},
		{"grouped", 16, 16, conv(16, 16, 3, 1, 1, 4)},
		{"se", 16, 16, func(r *frand.RNG) Layer { return NewSEBlock(r, 16, 4) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			r := frand.New(3)
			l := c.build(r)
			arena := tensor.NewArena()
			l.(ArenaUser).SetArena(arena)
			x := tensor.Randn(r, 1, 10, c.inC, c.hw, c.hw)
			dy := tensor.Randn(r, 1, l.Forward(x, true).Shape()...)
			vectest.BenchArms(b, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					arena.Reset()
					l.Forward(x, true)
					l.Backward(dy)
				}
			})
		})
	}
}
