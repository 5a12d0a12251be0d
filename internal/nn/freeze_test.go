package nn_test

import (
	"math"
	"sync"
	"testing"

	"heteroswitch/internal/frand"
	"heteroswitch/internal/israce"
	"heteroswitch/internal/nn"
	"heteroswitch/internal/parallel"
	"heteroswitch/internal/tensor"
)

// The frozen inference fast path folds BatchNorm into the preceding matmul
// layer and fuses activations into kernel epilogues. Folding reorders float
// operations, so the contract is tolerance-based: frozen output within 1e-5
// max-abs of the reference eval forward and IDENTICAL argmax predictions on
// every fixture. At a fixed weight state the frozen forward itself must be
// bit-identical across intra-op budgets (chunks own disjoint rows and
// epilogues are row-local), which doubles as the serial-vs-parallel tol-0
// test for the parallel pooling, activation, and BN-eval sweeps.

const frozenTol = 1e-5

// frozenTolFor returns the max-abs bound the active kernel tier documents
// for a frozen forward against the reference output: the float tiers hold
// frozenTol; the opt-in int8 tier (forced via HETEROSWITCH_KERNEL_BACKEND)
// holds tensor.Int8Tol relative to the reference's unit-floored magnitude.
// Argmax must be identical under every tier — only the bound loosens.
func frozenTolFor(want []float32) float64 {
	if tensor.ActiveBackend() != tensor.BackendInt8 {
		return frozenTol
	}
	m := 1.0
	for _, v := range want {
		if a := math.Abs(float64(v)); a > m {
			m = a
		}
	}
	return tensor.Int8Tol * m
}

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
				nn.NewBatchNorm2D(8),
				nn.NewReLU(),
				nn.NewMaxPool2D(2, 2),
				nn.NewFlatten(),
				nn.NewDense(r, 8*4*4, 5),
			)
		}},
		{"conv-bn-hswish-strided", 3, func(r *frand.RNG) *nn.Network {
			return nn.NewNetwork(
				nn.NewConv2D(r, 3, 8, 3, 2, 1, 1),
				nn.NewBatchNorm2D(8),
				nn.NewHardSwish(),
				nn.NewFlatten(),
				nn.NewDense(r, 8*4*4, 5),
			)
		}},
		{"grouped-conv-bn", 4, func(r *frand.RNG) *nn.Network {
			return nn.NewNetwork(
				nn.NewConv2D(r, 4, 8, 3, 1, 1, 2),
				nn.NewBatchNorm2D(8),
				nn.NewReLU(),
				nn.NewGlobalAvgPool(),
				nn.NewDense(r, 8, 5),
			)
		}},
		{"depthwise-conv-bn", 6, func(r *frand.RNG) *nn.Network {
			return nn.NewNetwork(
				nn.NewDepthwiseConv2D(r, 6, 3, 1, 1),
				nn.NewBatchNorm2D(6),
				nn.NewHardSwish(),
				nn.NewGlobalAvgPool(),
				nn.NewDense(r, 6, 5),
			)
		}},
		{"dense-hardsigmoid", 3, func(r *frand.RNG) *nn.Network {
			return nn.NewNetwork(
				nn.NewFlatten(),
				nn.NewDense(r, 3*8*8, 16),
				nn.NewHardSigmoid(),
				nn.NewDense(r, 16, 5),
			)
		}},
		{"residual-proj-standalone-bn", 3, func(r *frand.RNG) *nn.Network {
			body := nn.NewNetwork(
				nn.NewConv2D(r, 3, 8, 3, 1, 1, 1),
				nn.NewBatchNorm2D(8),
				nn.NewReLU(),
				nn.NewConv2D(r, 8, 8, 3, 1, 1, 1),
				nn.NewBatchNorm2D(8),
			)
			proj := nn.NewNetwork(
				nn.NewConv2D(r, 3, 8, 1, 1, 0, 1),
				nn.NewBatchNorm2D(8),
			)
			return nn.NewNetwork(
				nn.NewResidual(body, proj),
				nn.NewReLU(), // standalone activation (after a sum)
				nn.NewMaxPool2D(2, 2),
				nn.NewBatchNorm2D(8), // the residual BN eval path: no matmul precedes it
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
				nn.NewBatchNorm2D(8),
			)
			proj := nn.NewNetwork(
				nn.NewConv2D(r, 3, 8, 1, 2, 0, 1),
				nn.NewBatchNorm2D(8),
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
				nn.NewBatchNorm2D(8),
				nn.NewHardSwish(),
				nn.NewSEBlock(r, 8, 4),
				nn.NewGlobalAvgPool(),
				nn.NewDense(r, 8, 5),
			)
		}},
		{"parallel-split-shuffle", 3, func(r *frand.RNG) *nn.Network {
			branch := nn.NewNetwork(
				nn.NewConv2D(r, 4, 4, 3, 1, 1, 1),
				nn.NewBatchNorm2D(4),
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
			b2 := nn.NewNetwork(nn.NewConv2D(r, 3, 4, 3, 1, 1, 1), nn.NewHardSigmoid())
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
					nn.NewBatchNorm2D(8),
					nn.NewHardSwish(),
				),
				nn.NewNetwork(
					nn.NewConv2D(r, 8, 8, 3, 2, 1, 1),
					nn.NewBatchNorm2D(8),
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
				if d, tol := maxAbsDiff(got.Data(), want.Data()), frozenTolFor(want.Data()); d > tol {
					t.Fatalf("batch %d: frozen output diverges: max-abs %.3g > %g", batch, d, tol)
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
	if d, tol := maxAbsDiff(got.Data(), want.Data()), frozenTolFor(want.Data()); d > tol {
		t.Fatalf("re-frozen output diverges from reference: max-abs %.3g > %g", d, tol)
	}
	if maxAbsDiff(first.Data(), got.Data()) == 0 {
		t.Fatal("frozen view did not re-fold after weights changed")
	}
}

// TestFrozenBudgetsBitIdentical is the serial-vs-parallel tol-0 contract for
// the frozen path: the fused matmuls, parallel pooling, activation sweeps,
// and the standalone BN eval path must produce byte-for-byte the budget-1
// result at every budget. The batch is large enough that every fixture's
// leading conv or dense splits into chunks at budget 2.
func TestFrozenBudgetsBitIdentical(t *testing.T) {
	for _, fx := range frozenFixtures() {
		t.Run(fx.name, func(t *testing.T) {
			r := frand.New(4321)
			net := fx.net(r)
			trainFixture(net, r, fx.inC, 4)
			x := tensor.Randn(r, 1, 1537, fx.inC, 8, 8) // odd: every budget's partition is ragged
			if c := leadingChunks(net, x); c < 2 {
				t.Fatalf("leading layer runs in %d chunk(s) at budget 2; the test needs a split", c)
			}
			net.SetIntraOp(1)
			want := net.Freeze().Infer(x).Clone()
			for _, par := range []int{2, 3, 4, 8} {
				net.SetIntraOp(par)
				got := net.Freeze().Infer(x)
				for i, v := range got.Data() {
					if v != want.Data()[i] {
						t.Fatalf("budget %d: element %d differs: %v != %v (must be bit-identical)",
							par, i, v, want.Data()[i])
					}
				}
			}
		})
	}
}

// leadingChunks returns how many chunks the frozen forward splits the first
// conv or dense layer of net into at budget 2 on input x, by the grains the
// frozen ops use: sample×group iterations for a conv, rows for a dense.
func leadingChunks(net *nn.Network, x *tensor.Tensor) int {
	var first func(l nn.Layer) nn.Layer
	first = func(l nn.Layer) nn.Layer {
		switch v := l.(type) {
		case *nn.Conv2D, *nn.Dense:
			return l
		case *nn.Network:
			for _, c := range v.LayerList {
				if k := first(c); k != nil {
					return k
				}
			}
		case *nn.Residual:
			return first(v.Body)
		case *nn.Parallel:
			return first(v.Branches[0])
		}
		return nil
	}
	n := x.Dim(0)
	switch l := first(net).(type) {
	case *nn.Conv2D:
		d, err := tensor.NewConvDims(l.InC/l.Groups, x.Dim(2), x.Dim(3), l.KH, l.KW, l.Stride, l.Pad)
		if err != nil {
			panic(err)
		}
		return parallel.Chunks(2, n*l.Groups, parallel.GrainFor(l.OutC/l.Groups*d.ColRows()*d.ColCols()))
	case *nn.Dense:
		return parallel.Chunks(2, n, parallel.GrainFor(l.In*l.Out))
	}
	return 1
}

// TestFrozenSingleSampleUsesKernelBudget covers the iters==1 route where the
// whole budget is handed to the fused row-parallel matmul; the image is
// large enough that the conv's 16 output rows split at budget 2.
func TestFrozenSingleSampleUsesKernelBudget(t *testing.T) {
	r := frand.New(7)
	net := nn.NewNetwork(
		nn.NewConv2D(r, 3, 16, 3, 1, 1, 1),
		nn.NewBatchNorm2D(16),
		nn.NewReLU(),
		nn.NewGlobalAvgPool(),
		nn.NewDense(r, 16, 5),
	)
	trainFixture(net, r, 3, 3)
	x := tensor.Randn(r, 1, 1, 3, 128, 128)
	if c := parallel.Chunks(2, 16, parallel.GrainFor(27*128*128)); c < 2 {
		t.Fatalf("conv rows run in %d chunk(s) at budget 2; the test needs a split", c)
	}
	net.SetIntraOp(1)
	want := net.Freeze().Infer(x).Clone()
	for _, par := range []int{2, 4, 8} {
		net.SetIntraOp(par)
		got := net.Freeze().Infer(x)
		for i, v := range got.Data() {
			if v != want.Data()[i] {
				t.Fatalf("budget %d: single-sample frozen forward not bit-identical at %d", par, i)
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
			nn.NewBatchNorm2D(8),
			nn.NewHardSwish(),
			nn.NewSEBlock(r, 8, 4),
			nn.NewGlobalAvgPool(),
			nn.NewDense(r, 8, 5),
		)
	}
	ref := build()
	refIn := tensor.Randn(frand.New(66), 1, batch, 3, 8, 8)
	if c := leadingChunks(ref, refIn); c < 2 {
		t.Fatalf("leading conv runs in %d chunk(s) at budget 2; the test needs a split", c)
	}
	want := ref.Freeze().Infer(refIn).Clone()

	const workers = 4
	outs := make([]*tensor.Tensor, workers)
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
		}(w)
	}
	wg.Wait()
	for w, out := range outs {
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
// matmul's per-target accumulation order. Pinned to the serial kernel
// backend: bit-identity to the reference forward is the ORACLE-tier
// contract, and the packed backend only promises ≤1e-5 (see tensor's
// backend docs).
func TestFrozenPureFusionBitIdentical(t *testing.T) {
	prev := tensor.ActiveBackend()
	tensor.SetBackend(tensor.BackendSerial)
	defer tensor.SetBackend(prev)
	r := frand.New(31)
	net := nn.NewNetwork(
		nn.NewConv2D(r, 3, 8, 3, 2, 1, 1),
		nn.NewReLU(),
		nn.NewDepthwiseConv2D(r, 8, 3, 1, 1),
		nn.NewHardSwish(),
		nn.NewMaxPool2D(2, 2),
		nn.NewConv2D(r, 8, 12, 1, 1, 0, 1),
		nn.NewHardSwish(),
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
		nn.NewBatchNorm2D(16),
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
