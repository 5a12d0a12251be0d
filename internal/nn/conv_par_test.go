package nn

import (
	"fmt"
	"math"
	"testing"

	"heteroswitch/internal/frand"
	"heteroswitch/internal/tensor"
)

// Parallel Conv2D (and Dense, via the network test below) must be
// BIT-identical to the serial layer at every intra-op budget: forward
// outputs, input gradients, and the accumulated weight/bias gradients are
// all compared with exact equality on shapes with odd sample counts,
// channel counts not divisible by the budget, and grouped/depthwise
// variants.

func convCase(t *testing.T, n, inC, outC, k, stride, pad, groups, h, w, par int) {
	t.Helper()
	name := fmt.Sprintf("n%d_%d→%d_k%d_s%d_p%d_g%d_%dx%d_par%d", n, inC, outC, k, stride, pad, groups, h, w, par)

	serial := NewConv2D(frand.New(5), inC, outC, k, stride, pad, groups)
	parl := NewConv2D(frand.New(5), inC, outC, k, stride, pad, groups)
	parl.SetIntraOp(par)

	r := frand.New(9)
	x := tensor.Randn(r, 1, n, inC, h, w)
	outS := serial.Forward(x, true)
	outP := parl.Forward(x, true)
	exactSlice(t, name+"/forward", outP.Data(), outS.Data())

	grad := tensor.Randn(r, 1, outS.Shape()...)
	// Seed the gradient accumulators with junk to catch a kernel that
	// overwrites instead of accumulating (both sides get the same junk).
	seed := frand.New(13)
	for i, p := range serial.Params() {
		j := tensor.Randn(seed, 1, p.Grad.Shape()...)
		p.Grad.CopyFrom(j)
		parl.Params()[i].Grad.CopyFrom(j)
	}
	dxS := serial.Backward(grad)
	dxP := parl.Backward(grad)
	exactSlice(t, name+"/dx", dxP.Data(), dxS.Data())
	exactSlice(t, name+"/dW", parl.W.Grad.Data(), serial.W.Grad.Data())
	exactSlice(t, name+"/db", parl.B.Grad.Data(), serial.B.Grad.Data())
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

// TestConv2DParallelBitIdentical sweeps budgets over standard, grouped, and
// depthwise convolutions at shapes that produce ragged iteration and row
// partitions, plus the single-iteration (N=1, groups=1) case that hands the
// budget to the row-parallel matmul.
func TestConv2DParallelBitIdentical(t *testing.T) {
	for _, par := range []int{1, 2, 3, 4, 8} {
		convCase(t, 3, 6, 8, 3, 1, 1, 1, 16, 16, par)  // standard, odd batch
		convCase(t, 3, 6, 8, 3, 1, 1, 2, 16, 16, par)  // grouped
		convCase(t, 2, 6, 6, 3, 1, 1, 6, 13, 11, par)  // depthwise, odd image
		convCase(t, 5, 3, 7, 3, 2, 0, 1, 17, 15, par)  // strided, no pad, odd everything
		convCase(t, 1, 3, 16, 3, 1, 1, 1, 32, 32, par) // single iteration → inner row parallelism
	}
}

// TestNetworkParallelTrainingBitIdentical trains two identical conv+dense
// networks — one serial, one with an intra-op budget — for several SGD steps
// and requires bit-identical weights throughout, i.e. the budget must not
// perturb training at all.
func TestNetworkParallelTrainingBitIdentical(t *testing.T) {
	build := func() *Network {
		br := frand.New(41)
		return NewNetwork(
			NewConv2D(br, 3, 8, 3, 1, 1, 1),
			NewReLU(),
			NewFlatten(),
			NewDense(br, 8*12*12, 32),
			NewReLU(),
			NewDense(br, 32, 4),
		)
	}
	serial := build()
	parl := build()
	parl.SetIntraOp(4)
	if parl.IntraOp() != 4 {
		t.Fatalf("IntraOp()=%d after SetIntraOp(4)", parl.IntraOp())
	}

	r := frand.New(77)
	optS := NewSGD(0.05, 0.9)
	optP := NewSGD(0.05, 0.9)
	loss := SoftmaxCrossEntropy{}
	for step := 0; step < 4; step++ {
		x := tensor.Randn(r, 1, 5, 3, 12, 12)
		labels := []int{0, 1, 2, 3, 0}
		outS := serial.Forward(x, true)
		outP := parl.Forward(x, true)
		exactSlice(t, fmt.Sprintf("step%d/out", step), outP.Data(), outS.Data())
		_, gS := evalGrad(loss, outS, ClassTarget(labels))
		_, gP := evalGrad(loss, outP, ClassTarget(labels))
		serial.Backward(gS)
		parl.Backward(gP)
		optS.Step(serial.Params())
		optP.Step(parl.Params())
	}
	ws, wp := serial.Snapshot(), parl.Snapshot()
	for i := range ws.Params {
		exactSlice(t, fmt.Sprintf("param%d", i), wp.Params[i].Data(), ws.Params[i].Data())
	}
}
