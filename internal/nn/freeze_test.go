package nn_test

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"heteroswitch/internal/frand"
	"heteroswitch/internal/israce"
	"heteroswitch/internal/models"
	"heteroswitch/internal/nn"
	"heteroswitch/internal/tensor"
	"heteroswitch/internal/vec"
)

// The frozen inference fast path folds BatchNorm into the preceding matmul
// layer and fuses activations into kernel epilogues. Folding reorders float
// operations, so the contract is tolerance-based: frozen output within 1e-5
// max-abs of the reference eval forward and IDENTICAL argmax predictions on
// every fixture. At a fixed weight state the frozen forward itself must be
// bit-identical across intra-op budgets (each conv iteration is computed
// whole by one goroutine).

const frozenTol = 1e-5

// frozenFixture is one block-coverage case: a network builder plus its
// input channel count.
type frozenFixture struct {
	name string
	inC  int
	net  func(r *frand.RNG) *nn.Network
}

func frozenFixtures() []frozenFixture {
	return []frozenFixture{
		{"conv-bn-relu-maxpool", 3, func(r *frand.RNG) *nn.Network {
			return nn.NewNetwork(
				nn.NewConv2D(r, 3, 8, 3, 1, 1, 1),
				nn.NewBatchNorm2D(8, vec.ActIdentity),
				nn.NewReLU(),
				nn.NewMaxPool2D(2, 2),
				nn.NewFlatten(),
				nn.NewDense(r, 8*4*4, 5),
			)
		}},
		{"conv-bn-hswish-strided", 3, func(r *frand.RNG) *nn.Network {
			return nn.NewNetwork(
				nn.NewConv2D(r, 3, 8, 3, 2, 1, 1),
				nn.NewBatchNorm2D(8, vec.ActHardSwish),
				nn.NewFlatten(),
				nn.NewDense(r, 8*4*4, 5),
			)
		}},
		{"grouped-conv-bn", 4, func(r *frand.RNG) *nn.Network {
			return nn.NewNetwork(
				nn.NewConv2D(r, 4, 8, 3, 1, 1, 2),
				nn.NewBatchNorm2D(8, vec.ActIdentity),
				nn.NewReLU(),
				nn.NewGlobalAvgPool(),
				nn.NewDense(r, 8, 5),
			)
		}},
		{"depthwise-conv-bn", 6, func(r *frand.RNG) *nn.Network {
			return nn.NewNetwork(
				nn.NewDepthwiseConv2D(r, 6, 3, 1, 1),
				nn.NewBatchNorm2D(6, vec.ActHardSwish),
				nn.NewGlobalAvgPool(),
				nn.NewDense(r, 6, 5),
			)
		}},
		{"dense-relu", 3, func(r *frand.RNG) *nn.Network {
			return nn.NewNetwork(
				nn.NewFlatten(),
				nn.NewDense(r, 3*8*8, 16),
				nn.NewReLU(),
				nn.NewDense(r, 16, 5),
			)
		}},
		{"residual-proj-standalone-bn", 3, func(r *frand.RNG) *nn.Network {
			body := nn.NewNetwork(
				nn.NewConv2D(r, 3, 8, 3, 1, 1, 1),
				nn.NewBatchNorm2D(8, vec.ActIdentity),
				nn.NewReLU(),
				nn.NewConv2D(r, 8, 8, 3, 1, 1, 1),
				nn.NewBatchNorm2D(8, vec.ActIdentity),
			)
			proj := nn.NewNetwork(
				nn.NewConv2D(r, 3, 8, 1, 1, 0, 1),
				nn.NewBatchNorm2D(8, vec.ActIdentity),
			)
			return nn.NewNetwork(
				nn.NewResidual(body, proj),
				nn.NewReLU(), // standalone activation (after a sum)
				nn.NewMaxPool2D(2, 2),
				nn.NewBatchNorm2D(8, vec.ActIdentity), // the residual BN eval path: no matmul precedes it
				nn.NewGlobalAvgPool(),
				nn.NewDense(r, 8, 5),
			)
		}},
		{"residual-conv-proj-folded", 3, func(r *frand.RNG) *nn.Network {
			// BN-free 1×1 projection: folds onto the skip path as a single
			// accumulating affine at Freeze time.
			body := nn.NewNetwork(
				nn.NewConv2D(r, 3, 8, 3, 1, 1, 1),
				nn.NewReLU(),
			)
			proj := nn.NewNetwork(nn.NewConv2D(r, 3, 8, 1, 1, 0, 1))
			return nn.NewNetwork(
				nn.NewResidual(body, proj),
				nn.NewGlobalAvgPool(),
				nn.NewDense(r, 8, 5),
			)
		}},
		{"residual-strided-proj", 3, func(r *frand.RNG) *nn.Network {
			// Stride-2 1×1 projection: NOT foldable, keeps the materialized
			// skip-path branch covered.
			body := nn.NewNetwork(
				nn.NewConv2D(r, 3, 8, 3, 2, 1, 1),
				nn.NewBatchNorm2D(8, vec.ActIdentity),
			)
			proj := nn.NewNetwork(
				nn.NewConv2D(r, 3, 8, 1, 2, 0, 1),
				nn.NewBatchNorm2D(8, vec.ActIdentity),
			)
			return nn.NewNetwork(
				nn.NewResidual(body, proj),
				nn.NewReLU(),
				nn.NewGlobalAvgPool(),
				nn.NewDense(r, 8, 5),
			)
		}},
		{"seblock", 3, func(r *frand.RNG) *nn.Network {
			return nn.NewNetwork(
				nn.NewConv2D(r, 3, 8, 3, 1, 1, 1),
				nn.NewBatchNorm2D(8, vec.ActHardSwish),
				nn.NewSEBlock(r, 8, 4),
				nn.NewGlobalAvgPool(),
				nn.NewDense(r, 8, 5),
			)
		}},
		{"parallel-split-shuffle", 3, func(r *frand.RNG) *nn.Network {
			branch := nn.NewNetwork(
				nn.NewConv2D(r, 4, 4, 3, 1, 1, 1),
				nn.NewBatchNorm2D(4, vec.ActIdentity),
				nn.NewReLU(),
			)
			return nn.NewNetwork(
				nn.NewConv2D(r, 3, 8, 1, 1, 0, 1),
				nn.NewReLU(),
				nn.NewParallel(true, nn.NewIdentity(), branch),
				nn.NewChannelShuffle(2),
				nn.NewGlobalAvgPool(),
				nn.NewDense(r, 8, 5),
			)
		}},
		{"parallel-concat-hsig", 3, func(r *frand.RNG) *nn.Network {
			b1 := nn.NewNetwork(nn.NewConv2D(r, 3, 4, 1, 1, 0, 1), nn.NewReLU())
			// The hard-sigmoid is the squeeze-excite gate, inside a branch.
			b2 := nn.NewNetwork(nn.NewConv2D(r, 3, 4, 3, 1, 1, 1), nn.NewSEBlock(r, 4, 2))
			return nn.NewNetwork(
				nn.NewParallel(false, b1, b2),
				nn.NewMaxPool2D(2, 2),
				nn.NewFlatten(),
				nn.NewDense(r, 8*4*4, 5),
			)
		}},
		{"nested-networks", 3, func(r *frand.RNG) *nn.Network {
			return nn.NewNetwork(
				nn.NewNetwork(
					nn.NewConv2D(r, 3, 8, 3, 1, 1, 1),
					nn.NewBatchNorm2D(8, vec.ActHardSwish),
				),
				nn.NewNetwork(
					nn.NewConv2D(r, 8, 8, 3, 2, 1, 1),
					nn.NewBatchNorm2D(8, vec.ActIdentity),
					nn.NewReLU(),
				),
				nn.NewGlobalAvgPool(),
				nn.NewDense(r, 8, 5),
			)
		}},
	}
}

// trainFixture runs a few SGD steps so weights move and the BN running
// statistics leave their initialization.
func trainFixture(net *nn.Network, r *frand.RNG, inC, steps int) {
	loss := nn.SoftmaxCrossEntropy{}
	opt := nn.NewSGD(0.05, 0.9)
	labels := make([]int, 4)
	for s := 0; s < steps; s++ {
		x := tensor.Randn(r, 1, 4, inC, 8, 8)
		for i := range labels {
			labels[i] = r.Intn(5)
		}
		out := net.Forward(x, true)
		grad := tensor.New(out.Shape()...)
		loss.Eval(grad, out, nn.ClassTarget(labels))
		net.Backward(grad)
		opt.Step(net.Params())
	}
}

func maxAbsDiff(a, b []float32) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(float64(a[i]) - float64(b[i])); d > m {
			m = d
		}
	}
	return m
}

// TestFrozenEquivalence checks the tolerance contract against the reference
// eval forward for every block that can precede or follow a BatchNorm,
// including a partial final batch.
func TestFrozenEquivalence(t *testing.T) {
	for _, fx := range frozenFixtures() {
		t.Run(fx.name, func(t *testing.T) {
			r := frand.New(1234)
			net := fx.net(r)
			trainFixture(net, r, fx.inC, 6)
			for _, batch := range []int{1, 4, 7} {
				x := tensor.Randn(r, 1, batch, fx.inC, 8, 8)
				want := net.Forward(x, false).Clone()
				wantArg := want.ArgMaxRows()
				got := net.Freeze().Infer(x).Clone()
				if d := maxAbsDiff(got.Data(), want.Data()); d > frozenTol {
					t.Fatalf("batch %d: frozen output diverges: max-abs %.3g > %g", batch, d, frozenTol)
				}
				gotArg := got.ArgMaxRows()
				for i := range wantArg {
					if gotArg[i] != wantArg[i] {
						t.Fatalf("batch %d: argmax differs at row %d: frozen %d, reference %d",
							batch, i, gotArg[i], wantArg[i])
					}
				}
			}
		})
	}
}

// TestFrozenTracksWeightUpdates re-freezes after further training and checks
// the cached frozen view re-folds to the new weights.
func TestFrozenTracksWeightUpdates(t *testing.T) {
	fx := frozenFixtures()[0]
	r := frand.New(99)
	net := fx.net(r)
	trainFixture(net, r, fx.inC, 3)
	x := tensor.Randn(r, 1, 4, fx.inC, 8, 8)
	first := net.Freeze().Infer(x).Clone()
	trainFixture(net, r, fx.inC, 3)
	want := net.Forward(x, false).Clone()
	got := net.Freeze().Infer(x).Clone()
	if d := maxAbsDiff(got.Data(), want.Data()); d > frozenTol {
		t.Fatalf("re-frozen output diverges from reference: max-abs %.3g > %g", d, frozenTol)
	}
	if maxAbsDiff(first.Data(), got.Data()) == 0 {
		t.Fatal("frozen view did not re-fold after weights changed")
	}
}

// TestFrozenBudgetsBitIdentical is the serial-vs-parallel tol-0 contract for
// the frozen path: the forward must produce byte-for-byte the budget-1 result
// at every budget. The budget splits one loop, each conv's sample×group
// iterations (a depthwise conv's samples); the batch is large enough that
// every fixture with a conv splits it at budget 2, which the test asserts
// from the forward itself. The conv-free fixture runs serially at every
// budget.
func TestFrozenBudgetsBitIdentical(t *testing.T) {
	for _, fx := range frozenFixtures() {
		t.Run(fx.name, func(t *testing.T) {
			r := frand.New(4321)
			net := fx.net(r)
			trainFixture(net, r, fx.inC, 4)
			x := tensor.Randn(r, 1, 1537, fx.inC, 8, 8) // odd: every budget's partition is ragged
			requireBudgetsBitIdentical(t, net, x, 2, 3, 4, 8)
		})
	}
}

// TestFrozenSimpleCNNSplitsAtBudget2 is the shape the evaluation harnesses
// split: SimpleCNN on 32×32 inputs, a batch of 16, budget 2.
func TestFrozenSimpleCNNSplitsAtBudget2(t *testing.T) {
	r := frand.New(32)
	net := models.SimpleCNN(r, 3, 10)
	requireBudgetsBitIdentical(t, net, tensor.Randn(r, 1, 16, 3, 32, 32), 2)
}

// requireBudgetsBitIdentical fails unless net's frozen forward on x gives the
// budget-1 bits at each of budgets and, when the program has a conv, splits a
// conv's loop into at least two chunks at budget 2 (a budget test whose
// forward never splits compares the serial path with itself).
func requireBudgetsBitIdentical(t *testing.T, net *nn.Network, x *tensor.Tensor, budgets ...int) {
	t.Helper()
	net.SetIntraOp(1)
	want := net.Freeze().Infer(x).Clone()
	hasConv := nn.FrozenConvChunks(net) > 0
	for _, par := range budgets {
		net.SetIntraOp(par)
		got := net.Freeze().Infer(x)
		if c := nn.FrozenConvChunks(net); par == 2 && hasConv && c < 2 {
			t.Fatalf("budget 2: the frozen convs ran in %d chunk(s); the test needs a split", c)
		}
		for i, v := range got.Data() {
			if v != want.Data()[i] {
				t.Fatalf("budget %d: element %d differs: %v != %v (must be bit-identical)",
					par, i, v, want.Data()[i])
			}
		}
	}
}

// TestFrozenConcurrentReplicas runs one frozen replica per goroutine — the
// server-worker shape — under the shared worker pool; with -race this is the
// concurrency lane for the frozen forward. The batch is large enough that
// each replica's leading conv splits into chunks at its budget of 2.
func TestFrozenConcurrentReplicas(t *testing.T) {
	const batch = 128
	build := func() *nn.Network {
		r := frand.New(55)
		return nn.NewNetwork(
			nn.NewConv2D(r, 3, 8, 3, 1, 1, 1),
			nn.NewBatchNorm2D(8, vec.ActHardSwish),
			nn.NewSEBlock(r, 8, 4),
			nn.NewGlobalAvgPool(),
			nn.NewDense(r, 8, 5),
		)
	}
	ref := build()
	refIn := tensor.Randn(frand.New(66), 1, batch, 3, 8, 8)
	want := ref.Freeze().Infer(refIn).Clone()

	const workers = 4
	outs := make([]*tensor.Tensor, workers)
	splits := make([]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			net := build()
			net.SetIntraOp(2)
			fz := net.Freeze()
			x := tensor.Randn(frand.New(66), 1, batch, 3, 8, 8)
			var out *tensor.Tensor
			for rep := 0; rep < 8; rep++ {
				out = fz.Infer(x)
			}
			outs[w] = out.Clone()
			splits[w] = nn.FrozenConvChunks(net)
		}(w)
	}
	wg.Wait()
	for w, out := range outs {
		if splits[w] < 2 {
			t.Fatalf("worker %d: the frozen convs ran in %d chunk(s) at budget 2; the test needs a split", w, splits[w])
		}
		for i, v := range out.Data() {
			if v != want.Data()[i] {
				t.Fatalf("worker %d: concurrent frozen forward diverged at element %d", w, i)
			}
		}
	}
}

// TestFrozenPureFusionBitIdentical: without any BatchNorm there is no float
// reordering, so the frozen forward must match the reference eval forward
// exactly (the SqueezeNet-shaped contract). The net covers all three conv
// kernels of the fast path — general im2col, the direct depthwise tap loop,
// and the lowering-free pointwise matmul — which all promise the im2col
// matmul's per-target accumulation order, each with a ReLU in its store, and
// a squeeze-excite block, whose frozen gate runs the training block's sweep.
// Bit-identity to the reference forward is the oracle tier's contract, which
// the default backend runs.
func TestFrozenPureFusionBitIdentical(t *testing.T) {
	r := frand.New(31)
	net := nn.NewNetwork(
		nn.NewConv2D(r, 3, 8, 3, 2, 1, 1),
		nn.NewReLU(),
		nn.NewDepthwiseConv2D(r, 8, 3, 1, 1),
		nn.NewReLU(),
		nn.NewMaxPool2D(2, 2),
		nn.NewConv2D(r, 8, 12, 1, 1, 0, 1),
		nn.NewReLU(),
		nn.NewSEBlock(r, 12, 3),
		nn.NewGlobalAvgPool(),
		nn.NewDense(r, 12, 5),
	)
	trainFixture(net, r, 3, 3)
	for _, batch := range []int{1, 4} {
		x := tensor.Randn(r, 1, batch, 3, 8, 8)
		want := net.Forward(x, false).Clone()
		got := net.Freeze().Infer(x)
		for i, v := range got.Data() {
			if v != want.Data()[i] {
				t.Fatalf("batch %d: BN-free frozen forward must be bit-identical, element %d: %v != %v",
					batch, i, v, want.Data()[i])
			}
		}
	}
}

// TestFrozenDenseThenBatchNormPanics: a BatchNorm2D after a Dense folds into
// nothing; it compiles to its own eval forward, which panics on the dense's
// [N, Out] output exactly as the reference forward does, rather than
// returning an answer the reference cannot give.
func TestFrozenDenseThenBatchNormPanics(t *testing.T) {
	r := frand.New(41)
	net := nn.NewNetwork(nn.NewFlatten(), nn.NewDense(r, 3*4*4, 6), nn.NewBatchNorm2D(6, vec.ActReLU))
	x := tensor.Randn(r, 1, 2, 3, 4, 4)
	recovered := func(f func()) (v any) {
		defer func() { v = recover() }()
		f()
		return nil
	}
	want := recovered(func() { net.Forward(x, false) })
	if want == nil {
		t.Fatal("the reference forward of a BatchNorm2D after a Dense returned an answer")
	}
	if folded, _, wrapped := nn.FrozenProgram(net); folded != 0 || len(wrapped) != 2 {
		t.Fatalf("folded %d BatchNorm2D and wrapped %d layers, want 0 and 2 (Flatten, BatchNorm2D)", folded, len(wrapped))
	}
	if got := recovered(func() { net.Freeze().Infer(x) }); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("frozen forward recovered %v, want the reference forward's panic %v", got, want)
	}
}

// TestFrozenAllocFree: after a warm-up pass, the frozen forward performs no
// steady-state heap allocation (arena outputs, pooled dispatch, cached
// im2col scratch).
func TestFrozenAllocFree(t *testing.T) {
	if israce.Enabled {
		t.Skip("sync.Pool drops items randomly under -race; alloc counts are nondeterministic")
	}
	fx := frozenFixtures()[0]
	r := frand.New(77)
	net := fx.net(r)
	trainFixture(net, r, fx.inC, 2)
	fz := net.Freeze()
	x := tensor.Randn(r, 1, 4, fx.inC, 8, 8)
	fz.Infer(x) // warm the arena and scratch
	avg := testing.AllocsPerRun(20, func() { fz.Infer(x) })
	if avg != 0 {
		t.Fatalf("frozen forward allocates %.1f objects per pass in steady state, want 0", avg)
	}
}

var sinkArg []int

// BenchmarkFrozenForward compares the frozen and reference eval forwards on
// one conv block (micro view of BenchmarkEval at the root).
func BenchmarkFrozenForward(b *testing.B) {
	r := frand.New(8)
	net := nn.NewNetwork(
		nn.NewConv2D(r, 3, 16, 3, 1, 1, 1),
		nn.NewBatchNorm2D(16, vec.ActIdentity),
		nn.NewReLU(),
		nn.NewGlobalAvgPool(),
		nn.NewDense(r, 16, 10),
	)
	x := tensor.Randn(r, 1, 16, 3, 16, 16)
	for _, mode := range []string{"fused", "reference"} {
		b.Run(mode, func(b *testing.B) {
			fz := net.Freeze()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if mode == "fused" {
					sinkArg = fz.Infer(x).ArgMaxRows()
				} else {
					sinkArg = net.Forward(x, false).ArgMaxRows()
				}
			}
		})
	}
}

// TestFrozenProgramsFoldOrFuse records what the compiler makes of the five
// bundled architectures: every BatchNorm2D is folded and every activation
// fused into a conv or dense op, so the only layers left to run as their
// own eval forward are the ones with nothing to fold — views, permutations
// and pooling.
func TestFrozenProgramsFoldOrFuse(t *testing.T) {
	for _, tc := range []struct {
		name string
		net  *nn.Network
	}{
		{"mobilenet", models.TinyMobileNetV3(frand.New(1), 3, 10)},
		{"shufflenet", models.TinyShuffleNetV2(frand.New(1), 3, 10)},
		{"squeezenet", models.TinySqueezeNet(frand.New(1), 3, 10)},
		{"simplecnn", models.SimpleCNN(frand.New(1), 3, 10)},
		{"ecg", models.ECGConvNet(frand.New(1), 64)},
	} {
		bns, acts := countAbsorbable(tc.net.LayerList)
		folded, fused, wrapped := nn.FrozenProgram(tc.net)
		if folded != bns || fused != acts {
			t.Errorf("%s: folded %d of %d BatchNorm2D, fused %d of %d activations", tc.name, folded, bns, fused, acts)
		}
		for _, l := range wrapped {
			switch l.(type) {
			case *nn.Flatten, *nn.Reshape, *nn.ChannelShuffle, *nn.MaxPool2D, *nn.GlobalAvgPool:
			default:
				t.Errorf("%s: %s runs as its own eval forward", tc.name, l.Name())
			}
		}
	}
}

// countAbsorbable counts the BatchNorm2D layers and the activations — layers
// and the ones batch norms carry — of a layer tree, through nested networks,
// residual and parallel blocks.
func countAbsorbable(layers []nn.Layer) (bns, acts int) {
	for _, l := range layers {
		var sub []nn.Layer
		switch l := l.(type) {
		case *nn.BatchNorm2D:
			bns++
			if nn.BNAct(l) != vec.ActIdentity {
				acts++
			}
		case *nn.ReLU:
			acts++
		case *nn.Network:
			sub = l.LayerList
		case *nn.Residual:
			sub = []nn.Layer{l.Body, l.Proj}
		case *nn.Parallel:
			sub = l.Branches
		}
		b, a := countAbsorbable(sub)
		bns, acts = bns+b, acts+a
	}
	return bns, acts
}
