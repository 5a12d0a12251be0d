package nn

import (
	"testing"

	"heteroswitch/internal/frand"
	"heteroswitch/internal/tensor"
	"heteroswitch/internal/vec"
)

// arenaNet builds a network touching every layer type that draws from the
// arena, including a nested Network (inside Residual) that must adopt the
// outer arena rather than reset its own mid-batch.
func arenaNet(seed uint64) *Network {
	r := frand.New(seed)
	return NewNetwork(
		NewConv2D(r, 2, 4, 3, 1, 1, 1),
		NewBatchNorm2D(4, vec.ActIdentity),
		NewReLU(),
		NewResidual(NewNetwork(
			NewConv2D(r, 4, 4, 3, 1, 1, 1),
			NewBatchNorm2D(4, vec.ActIdentity),
		), nil),
		NewParallel(false,
			NewConv2D(r, 4, 2, 1, 1, 0, 1),
			NewConv2D(r, 4, 2, 3, 1, 1, 1),
		),
		NewChannelShuffle(2),
		NewSEBlock(r, 4, 2),
		NewBatchNorm2D(4, vec.ActHardSwish),
		NewMaxPool2D(2, 2),
		NewFlatten(),
		NewDense(r, 64, 8),
		NewReLU(),
		NewDense(r, 8, 3),
	)
}

// Arena-backed and allocate-per-batch execution must agree bit-for-bit on
// outputs, input gradients, and parameter gradients, across several batches
// (the second and later batches run entirely on recycled buffers). Any
// aliasing bug — the arena handing out a buffer still referenced by a cached
// Backward intermediate, or a recycled buffer not being rebuilt — breaks the
// exact equality.
func TestArenaForwardBackwardBitIdentical(t *testing.T) {
	withArena := arenaNet(3)
	noArena := arenaNet(3)
	noArena.SetArena(nil)
	if noArena.arena != nil {
		t.Fatal("SetArena(nil) did not disable the arena")
	}

	r := frand.New(99)
	for step := 0; step < 3; step++ {
		x := tensor.Randn(r, 1, 2, 2, 8, 8)
		ya := withArena.Forward(x, true)
		yb := noArena.Forward(x, true)
		if !ya.AllClose(yb, 0) {
			t.Fatalf("step %d: forward outputs differ with arena enabled", step)
		}
		grad := tensor.Randn(r, 1, ya.Shape()...)
		dxa := withArena.Backward(grad)
		dxb := noArena.Backward(grad)
		if !dxa.AllClose(dxb, 0) {
			t.Fatalf("step %d: input gradients differ with arena enabled", step)
		}
		pa, pb := withArena.Params(), noArena.Params()
		for i := range pa {
			if !pa[i].Grad.AllClose(pb[i].Grad, 0) {
				t.Fatalf("step %d: grad of %s differs with arena enabled", step, pa[i].Name)
			}
		}
		for i := range pa {
			pa[i].Grad.Zero()
			pb[i].Grad.Zero()
		}
	}
}

// Backward's returned gradient must survive later Forward passes on the same
// network — the contract the numerical gradient checker relies on (it probes
// the loss with many Forwards after one Backward).
func TestBackwardResultSurvivesLaterForwards(t *testing.T) {
	net := arenaNet(5)
	r := frand.New(7)
	x := tensor.Randn(r, 1, 2, 2, 8, 8)
	y := net.Forward(x, true)
	grad := tensor.Randn(r, 1, y.Shape()...)
	dx := net.Backward(grad)
	snapshot := dx.Clone()
	for i := 0; i < 3; i++ {
		net.Forward(tensor.Randn(r, 1, 2, 2, 8, 8), true)
	}
	if !dx.AllClose(snapshot, 0) {
		t.Fatal("Backward result was clobbered by later Forward passes")
	}
}

// Eval-mode forwards must also run on recycled buffers without corrupting
// results: repeated evaluation of the same input is deterministic.
func TestArenaEvalForwardDeterministic(t *testing.T) {
	net := arenaNet(11)
	r := frand.New(13)
	x := tensor.Randn(r, 1, 4, 2, 8, 8)
	first := net.Forward(x, false).Clone()
	for i := 0; i < 4; i++ {
		if !net.Forward(x, false).AllClose(first, 0) {
			t.Fatalf("eval forward %d diverged on recycled buffers", i)
		}
	}
}

// A nested Network embedded as a layer must adopt the parent's arena: its
// own Forward must NOT reset mid-batch (which would recycle buffers the
// outer layers still hold). arenaNet's Residual body is such a network; here
// we additionally check the steady state allocates nothing new by watching
// the arena's live count stabilize.
func TestNestedNetworkSharesArena(t *testing.T) {
	net := arenaNet(17)
	r := frand.New(19)
	x := tensor.Randn(r, 1, 2, 2, 8, 8)
	grad := tensor.Randn(r, 1, 2, 3)

	net.Forward(x, true)
	net.Backward(grad)
	live := net.arena.Live()
	if live == 0 {
		t.Fatal("expected live arena tensors after forward/backward")
	}
	for i := 0; i < 3; i++ {
		net.Forward(x, true)
		net.Backward(grad)
		if got := net.arena.Live(); got != live {
			t.Fatalf("arena live count changed in steady state: %d -> %d (buffers leak per batch)", live, got)
		}
	}
}
