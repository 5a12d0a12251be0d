package nn

import (
	"math"
	"testing"

	"heteroswitch/internal/frand"
	"heteroswitch/internal/tensor"
	"heteroswitch/internal/vec"
)

// lossOf computes the probe loss L = <forward(x), R> used for gradient
// checking: its exact output-gradient is R.
func lossOf(l Layer, x, r *tensor.Tensor) float64 {
	var s float64
	for i, v := range l.Forward(x, true).Data() {
		s += float64(v) * float64(r.Data()[i])
	}
	return s
}

// checkGrads numerically verifies dL/dx and all dL/dparam for layer l on
// input x. It checks up to maxCoords coordinates per tensor.
func checkGrads(t *testing.T, l Layer, x *tensor.Tensor, seed uint64, maxCoords int) {
	t.Helper()
	rng := frand.New(seed)
	out := l.Forward(x.Clone(), true)
	r := tensor.Randn(rng, 1, out.Shape()...)

	for _, p := range l.Params() {
		p.Grad.Zero()
	}
	xin := x.Clone()
	_ = l.Forward(xin, true)
	dx := l.Backward(r)

	const eps = 1e-2
	approxEq := func(analytic, numeric float64) bool {
		diff := math.Abs(analytic - numeric)
		scale := math.Max(math.Abs(analytic), math.Abs(numeric))
		return diff <= 2e-2+5e-2*scale
	}

	// Check input gradient on sampled coordinates.
	coords := sampleCoords(rng, x.Size(), maxCoords)
	for _, c := range coords {
		orig := x.Data()[c]
		x.Data()[c] = orig + eps
		lp := lossOf(l, x.Clone(), r)
		x.Data()[c] = orig - eps
		lm := lossOf(l, x.Clone(), r)
		x.Data()[c] = orig
		numeric := (lp - lm) / (2 * eps)
		analytic := float64(dx.Data()[c])
		if !approxEq(analytic, numeric) {
			t.Fatalf("%s: input grad[%d] analytic %.5f vs numeric %.5f", l.Name(), c, analytic, numeric)
		}
	}

	// Check parameter gradients.
	for pi, p := range l.Params() {
		coords := sampleCoords(rng, p.W.Size(), maxCoords)
		for _, c := range coords {
			orig := p.W.Data()[c]
			p.W.Data()[c] = orig + eps
			lp := lossOf(l, x.Clone(), r)
			p.W.Data()[c] = orig - eps
			lm := lossOf(l, x.Clone(), r)
			p.W.Data()[c] = orig
			numeric := (lp - lm) / (2 * eps)
			analytic := float64(p.Grad.Data()[c])
			if !approxEq(analytic, numeric) {
				t.Fatalf("%s: param %d (%s) grad[%d] analytic %.5f vs numeric %.5f",
					l.Name(), pi, p.Name, c, analytic, numeric)
			}
		}
	}
}

func sampleCoords(r *frand.RNG, n, k int) []int {
	if n <= k {
		return r.Perm(n)
	}
	return r.Choice(n, k)
}

func TestDenseGrad(t *testing.T) {
	r := frand.New(1)
	l := NewDense(r, 7, 5)
	x := tensor.Randn(r, 1, 4, 7)
	checkGrads(t, l, x, 2, 20)
}

func TestConv2DGrad(t *testing.T) {
	r := frand.New(3)
	l := NewConv2D(r, 3, 4, 3, 1, 1, 1)
	x := tensor.Randn(r, 1, 2, 3, 6, 6)
	checkGrads(t, l, x, 4, 20)
}

func TestConv2DStride2Grad(t *testing.T) {
	r := frand.New(5)
	l := NewConv2D(r, 2, 6, 3, 2, 1, 1)
	x := tensor.Randn(r, 1, 2, 2, 8, 8)
	checkGrads(t, l, x, 6, 20)
}

func TestGroupConvGrad(t *testing.T) {
	r := frand.New(7)
	l := NewConv2D(r, 4, 8, 3, 1, 1, 2)
	x := tensor.Randn(r, 1, 2, 4, 5, 5)
	checkGrads(t, l, x, 8, 20)
}

func TestDepthwiseConvGrad(t *testing.T) {
	r := frand.New(9)
	l := NewDepthwiseConv2D(r, 5, 3, 1, 1)
	x := tensor.Randn(r, 1, 2, 5, 6, 6)
	checkGrads(t, l, x, 10, 20)
}

func TestReLUGrad(t *testing.T) {
	r := frand.New(11)
	// Keep values away from the kink at 0 for clean finite differences.
	x := tensor.Randn(r, 1, 3, 10)
	apply(x, func(v float32) float32 {
		if v >= 0 && v < 0.1 {
			return v + 0.15
		}
		if v < 0 && v > -0.1 {
			return v - 0.15
		}
		return v
	})
	checkGrads(t, NewReLU(), x, 12, 30)
}

// TestBatchNormGrad checks batch norm with each activation it carries. γ is
// wide enough on channel 0 that hard-swish's z crosses both knees, and every
// x whose z lies within 0.05 of a kink (±3 for hard-swish, 0 for ReLU) is
// nudged off it first, since a finite difference across a kink measures
// neither side.
func TestBatchNormGrad(t *testing.T) {
	for i, act := range []vec.Act{vec.ActIdentity, vec.ActReLU, vec.ActHardSwish} {
		r := frand.New(17 + uint64(i))
		l := NewBatchNorm2D(3, act)
		// Non-trivial gamma/beta so their gradients are exercised.
		for i, v := range []float32{2.5, 0.8, 1.5} {
			l.Gamma.W.Data()[i] = v
		}
		for i, v := range []float32{0.1, -0.2, 0.3} {
			l.Beta.W.Data()[i] = v
		}
		x := tensor.Randn(r, 1, 4, 3, 5, 5)
		awayFromKinks(l, x, act)
		checkGrads(t, l, x, 18, 20)
	}
}

// TestHardSwishGrad checks the hard-swish that batch norm carries over all
// three of its pieces: γ = 3 on every channel spreads z = γ·x̂ + β well past
// both knees, and the test first confirms that each piece (z < -3,
// -3 < z < 3, z > 3) holds some element before it compares gradients.
func TestHardSwishGrad(t *testing.T) {
	r := frand.New(13)
	l := NewBatchNorm2D(3, vec.ActHardSwish)
	for i, v := range []float32{3, 3, 3} {
		l.Gamma.W.Data()[i] = v
	}
	for i, v := range []float32{0.5, -0.5, 0} {
		l.Beta.W.Data()[i] = v
	}
	x := tensor.Randn(r, 1.5, 2, 3, 4, 4)
	awayFromKinks(l, x, vec.ActHardSwish)

	affine := NewBatchNorm2D(l.C, vec.ActIdentity)
	affine.Gamma.W.CopyFrom(l.Gamma.W)
	affine.Beta.W.CopyFrom(l.Beta.W)
	var below, inside, above int
	for _, z := range affine.Forward(x, true).Data() {
		switch {
		case z < -3:
			below++
		case z > 3:
			above++
		default:
			inside++
		}
	}
	if below == 0 || inside == 0 || above == 0 {
		t.Fatalf("pre-activations miss a piece of hard-swish: %d below -3, %d inside, %d above 3", below, inside, above)
	}
	checkGrads(t, l, x, 14, 30)
}

// awayFromKinks moves every element of x whose pre-activation
// z = γ·x̂ + β under l's batch statistics lies within 0.05 of a kink of act,
// until none does.
func awayFromKinks(l *BatchNorm2D, x *tensor.Tensor, act vec.Act) {
	kinks := map[vec.Act][]float32{vec.ActReLU: {0}, vec.ActHardSwish: {-3, 3}}[act]
	affine := NewBatchNorm2D(l.C, vec.ActIdentity)
	affine.Gamma.W.CopyFrom(l.Gamma.W)
	affine.Beta.W.CopyFrom(l.Beta.W)
	for moved := true; moved; {
		moved = false
		hw := x.Dim(2) * x.Dim(3)
		for i, z := range affine.Forward(x, true).Data() {
			for _, k := range kinks {
				if z > k-0.05 && z < k+0.05 {
					c := i / hw % l.C
					x.Data()[i] += 0.2 / l.Gamma.W.Data()[c]
					moved = true
				}
			}
		}
	}
}

func TestMaxPoolGrad(t *testing.T) {
	r := frand.New(19)
	l := NewMaxPool2D(2, 2)
	x := tensor.Randn(r, 1, 2, 2, 6, 6)
	checkGrads(t, l, x, 20, 30)
}

func TestGlobalAvgPoolGrad(t *testing.T) {
	r := frand.New(23)
	x := tensor.Randn(r, 1, 2, 3, 4, 4)
	checkGrads(t, NewGlobalAvgPool(), x, 24, 30)
}

func TestResidualGrad(t *testing.T) {
	r := frand.New(25)
	body := NewNetwork(
		NewConv2D(r, 3, 3, 3, 1, 1, 1),
		NewReLU(),
	)
	l := NewResidual(body, nil)
	x := tensor.Randn(r, 1, 2, 3, 5, 5)
	checkGrads(t, l, x, 26, 20)
}

func TestResidualProjGrad(t *testing.T) {
	r := frand.New(27)
	body := NewConv2D(r, 2, 4, 3, 1, 1, 1)
	proj := NewConv2D(r, 2, 4, 1, 1, 0, 1)
	l := NewResidual(body, proj)
	x := tensor.Randn(r, 1, 2, 2, 4, 4)
	checkGrads(t, l, x, 28, 20)
}

func TestParallelConcatGrad(t *testing.T) {
	r := frand.New(29)
	l := NewParallel(false,
		NewConv2D(r, 3, 2, 1, 1, 0, 1),
		NewConv2D(r, 3, 3, 3, 1, 1, 1),
	)
	x := tensor.Randn(r, 1, 2, 3, 4, 4)
	checkGrads(t, l, x, 30, 20)
}

func TestParallelSplitGrad(t *testing.T) {
	r := frand.New(31)
	l := NewParallel(true,
		NewIdentity(),
		NewConv2D(r, 2, 2, 3, 1, 1, 1),
	)
	x := tensor.Randn(r, 1, 2, 4, 4, 4)
	checkGrads(t, l, x, 32, 20)
}

func TestSEBlockGrad(t *testing.T) {
	r := frand.New(33)
	l := NewSEBlock(r, 4, 2)
	x := tensor.Randn(r, 1, 2, 4, 4, 4)
	checkGrads(t, l, x, 34, 20)
}

// TestHardSigmoidGrad checks the hard-sigmoid gate of a squeeze-excite block
// on both sides of both knees: fc2's bias puts the pre-gate excitation u of
// channel 0 above 3 and of channel 1 below −3, where the gate is clamped and
// its gradient 0, and leaves channels 2 and 3 inside (−3, 3), where its slope
// is 1/6. No u lies within 0.25 of a knee, so no finite difference straddles
// one.
func TestHardSigmoidGrad(t *testing.T) {
	r := frand.New(15)
	l := NewSEBlock(r, 4, 2)
	copy(l.fc2.B.W.Data(), []float32{4.5, -4.5, 0.5, -0.5})
	x := tensor.Randn(r, 1, 2, 4, 4, 4)
	l.Forward(x.Clone(), true)
	var above, below, inside int
	for _, u := range l.u.Data() {
		switch {
		case math.Abs(math.Abs(float64(u))-3) < 0.25:
			t.Fatalf("pre-gate u = %v lies within 0.25 of a knee", u)
		case u > 3:
			above++
		case u < -3:
			below++
		default:
			inside++
		}
	}
	if above == 0 || below == 0 || inside == 0 {
		t.Fatalf("pre-gate u: %d above 3, %d below −3, %d inside; want each side covered", above, below, inside)
	}
	checkGrads(t, l, x, 16, 24)
}

func TestChannelShuffleGrad(t *testing.T) {
	r := frand.New(35)
	l := NewChannelShuffle(2)
	x := tensor.Randn(r, 1, 2, 4, 3, 3)
	checkGrads(t, l, x, 36, 20)
}

// TestNetworkCompositeGrad composes layers that are smooth where the data
// lives: conv, batch norm, mean pool and dense have no kinks, and HardSwish's
// two, at ±3, sit three standard deviations out after the batch norm. ReLU
// (kink at 0, the middle of that distribution) and max pooling make finite
// differences unreliable when composed; each has its own dedicated gradient
// check above.
func TestNetworkCompositeGrad(t *testing.T) {
	r := frand.New(37)
	net := NewNetwork(
		NewConv2D(r, 1, 4, 3, 1, 1, 1),
		NewBatchNorm2D(4, vec.ActHardSwish),
		NewGlobalAvgPool(),
		NewDense(r, 4, 5),
	)
	x := tensor.Randn(r, 1, 2, 1, 6, 6)
	checkGrads(t, net, x, 38, 15)
}

// apply replaces every element v of x with f(v).
func apply(x *tensor.Tensor, f func(float32) float32) {
	d := x.Data()
	for i, v := range d {
		d[i] = f(v)
	}
}
