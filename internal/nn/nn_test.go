package nn

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"heteroswitch/internal/frand"
	"heteroswitch/internal/tensor"
	"heteroswitch/internal/vec"
	"heteroswitch/internal/vectest"
)

func smallNet(seed uint64) *Network {
	r := frand.New(seed)
	return NewNetwork(
		NewConv2D(r, 1, 4, 3, 1, 1, 1),
		NewBatchNorm2D(4, vec.ActIdentity),
		NewReLU(),
		NewGlobalAvgPool(),
		NewDense(r, 4, 3),
	)
}

func TestNetworkShapes(t *testing.T) {
	net := smallNet(1)
	r := frand.New(2)
	x := tensor.Randn(r, 1, 5, 1, 8, 8)
	y := net.Forward(x, false)
	if y.Dim(0) != 5 || y.Dim(1) != 3 {
		t.Fatalf("output shape %v", y.Shape())
	}
}

func TestSnapshotLoadRoundtrip(t *testing.T) {
	a := smallNet(1)
	b := smallNet(99) // different init
	w := a.Snapshot()
	if err := b.LoadWeights(w); err != nil {
		t.Fatal(err)
	}
	r := frand.New(3)
	x := tensor.Randn(r, 1, 2, 1, 8, 8)
	ya := a.Forward(x, false)
	yb := b.Forward(x, false)
	if !ya.AllClose(yb, 1e-6) {
		t.Fatal("networks with identical weights disagree")
	}
}

func TestSnapshotIsDetached(t *testing.T) {
	net := smallNet(1)
	w := net.Snapshot()
	net.Params()[0].W.Data()[0] += 100
	if w.Params[0].Data()[0] == net.Params()[0].W.Data()[0] {
		t.Fatal("snapshot aliases live parameters")
	}
}

func TestLoadWeightsShapeMismatch(t *testing.T) {
	net := smallNet(1)
	w := net.Snapshot()
	w.Params = w.Params[:1]
	if err := net.LoadWeights(w); err == nil {
		t.Fatal("expected error for truncated weights")
	}
}

func TestWeightsAxpyLerp(t *testing.T) {
	net := smallNet(1)
	w := net.Snapshot()
	z := w.Zero()
	z.Axpy(2, w)
	twice := w.Clone()
	for _, p := range twice.Params {
		p.Scale(2)
	}
	for i, p := range z.Params {
		if !p.AllClose(twice.Params[i], 1e-5) {
			t.Fatalf("Axpy param %d mismatch", i)
		}
	}
	a := w.Clone()
	a.Lerp(1, z) // a becomes z == 2w
	for i, p := range a.Params {
		if !p.AllClose(twice.Params[i], 1e-5) {
			t.Fatalf("Lerp param %d mismatch", i)
		}
	}
}

func TestWeightsSubAndL2(t *testing.T) {
	net := smallNet(1)
	w := net.Snapshot()
	d := w.Sub(w)
	for _, p := range d.Params {
		for _, v := range p.Data() {
			if v != 0 {
				t.Fatal("w - w != 0")
			}
		}
	}
	if w.L2DistSq(w) != 0 {
		t.Fatal("L2DistSq(w,w) != 0")
	}
	w2 := w.Clone()
	apply(w2.Params[0], func(v float32) float32 { return v + 1 })
	want := float64(w.Params[0].Size())
	if math.Abs(w.L2DistSq(w2)-want) > 1e-3 {
		t.Fatalf("L2DistSq = %v, want %v", w.L2DistSq(w2), want)
	}
}

func TestSoftmaxCrossEntropyKnownValue(t *testing.T) {
	logits := tensor.FromSlice([]float32{0, 0, 0}, 1, 3)
	loss, grad := evalGrad(SoftmaxCrossEntropy{}, logits, ClassTarget([]int{1}))
	if math.Abs(loss-math.Log(3)) > 1e-6 {
		t.Fatalf("uniform logits loss = %v, want ln3", loss)
	}
	// grad = p - onehot = (1/3, 1/3-1, 1/3)
	want := []float32{1.0 / 3, 1.0/3 - 1, 1.0 / 3}
	for i, v := range want {
		if math.Abs(float64(grad.Data()[i]-v)) > 1e-6 {
			t.Fatalf("grad[%d] = %v, want %v", i, grad.Data()[i], v)
		}
	}
}

func TestSoftmaxCrossEntropyGradSumsToZero(t *testing.T) {
	r := frand.New(7)
	logits := tensor.Randn(r, 2, 4, 6)
	_, grad := evalGrad(SoftmaxCrossEntropy{}, logits, ClassTarget([]int{0, 5, 2, 3}))
	for i := 0; i < 4; i++ {
		var s float64
		for j := 0; j < 6; j++ {
			s += float64(grad.At(i, j))
		}
		if math.Abs(s) > 1e-5 {
			t.Fatalf("row %d grad sum = %v, want 0", i, s)
		}
	}
}

func TestBCEWithLogitsMatchesManual(t *testing.T) {
	logits := tensor.FromSlice([]float32{2, -1}, 1, 2)
	target := tensor.FromSlice([]float32{1, 0}, 1, 2)
	loss, grad := evalGrad(BCEWithLogits{}, logits, DenseTarget(target))
	p0 := 1 / (1 + math.Exp(-2.0))
	p1 := 1 / (1 + math.Exp(1.0))
	want := (-math.Log(p0) - math.Log(1-p1)) / 2
	if math.Abs(loss-want) > 1e-6 {
		t.Fatalf("BCE loss = %v, want %v", loss, want)
	}
	if math.Abs(float64(grad.At(0, 0))-(p0-1)/2) > 1e-6 {
		t.Fatalf("BCE grad wrong: %v", grad.Data())
	}
}

func TestMSEKnownValue(t *testing.T) {
	pred := tensor.FromSlice([]float32{1, 3}, 2, 1)
	target := tensor.FromSlice([]float32{0, 0}, 2, 1)
	loss, grad := evalGrad(MSE{}, pred, DenseTarget(target))
	if math.Abs(loss-5) > 1e-6 { // (1+9)/2
		t.Fatalf("MSE = %v, want 5", loss)
	}
	if math.Abs(float64(grad.At(0, 0))-1) > 1e-6 || math.Abs(float64(grad.At(1, 0))-3) > 1e-6 {
		t.Fatalf("MSE grad = %v", grad.Data())
	}
}

// numericLossGrad checks loss gradients against finite differences.
func TestLossGradNumeric(t *testing.T) {
	r := frand.New(11)
	logits := tensor.Randn(r, 1, 3, 5)
	labels := []int{1, 4, 0}
	_, grad := evalGrad(SoftmaxCrossEntropy{}, logits, ClassTarget(labels))
	const eps = 1e-3
	for c := 0; c < logits.Size(); c++ {
		orig := logits.Data()[c]
		logits.Data()[c] = orig + eps
		lp, _ := evalGrad(SoftmaxCrossEntropy{}, logits, ClassTarget(labels))
		logits.Data()[c] = orig - eps
		lm, _ := evalGrad(SoftmaxCrossEntropy{}, logits, ClassTarget(labels))
		logits.Data()[c] = orig
		numeric := (lp - lm) / (2 * eps)
		if math.Abs(numeric-float64(grad.Data()[c])) > 1e-3 {
			t.Fatalf("CE grad[%d]: numeric %v analytic %v", c, numeric, grad.Data()[c])
		}
	}
}

// TestTrainingReducesLoss is the end-to-end sanity check: a small network
// must be able to fit a tiny synthetic classification problem.
func TestTrainingReducesLoss(t *testing.T) {
	r := frand.New(21)
	net := NewNetwork(
		NewConv2D(r, 1, 6, 3, 1, 1, 1),
		NewBatchNorm2D(6, vec.ActIdentity),
		NewReLU(),
		NewGlobalAvgPool(),
		NewDense(r, 6, 2),
	)
	// Class 0: bright top half. Class 1: bright bottom half.
	const n = 20
	x := tensor.New(n, 1, 8, 8)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		labels[i] = i % 2
		for y := 0; y < 8; y++ {
			for xx := 0; xx < 8; xx++ {
				v := float32(r.Float64() * 0.2)
				if (labels[i] == 0 && y < 4) || (labels[i] == 1 && y >= 4) {
					v += 0.8
				}
				x.Data()[(i*8+y)*8+xx] = v // [i, 0, y, xx] of an [N 1 8 8] batch
			}
		}
	}
	opt := NewSGD(0.1, 0.9)
	loss0 := 0.0
	var lossN float64
	for epoch := 0; epoch < 30; epoch++ {
		out := net.Forward(x, true)
		loss, grad := evalGrad(SoftmaxCrossEntropy{}, out, ClassTarget(labels))
		if epoch == 0 {
			loss0 = loss
		}
		lossN = loss
		net.Backward(grad)
		opt.Step(net.Params())
	}
	if lossN > loss0*0.5 {
		t.Fatalf("training failed to reduce loss: %v -> %v", loss0, lossN)
	}
	out := net.Forward(x, false)
	pred := out.ArgMaxRows()
	correct := 0
	for i, p := range pred {
		if p == labels[i] {
			correct++
		}
	}
	if correct < n*8/10 {
		t.Fatalf("train accuracy %d/%d too low", correct, n)
	}
}

func TestSGDMomentumAccumulates(t *testing.T) {
	p := &Param{W: tensor.New(1), Grad: tensor.New(1)}
	opt := NewSGD(1, 0.5)
	p.Grad.Fill(1)
	opt.Step([]*Param{p}) // v=1, w=-1
	p.Grad.Fill(1)
	opt.Step([]*Param{p}) // v=1.5, w=-2.5
	if math.Abs(float64(p.W.At(0))+2.5) > 1e-6 {
		t.Fatalf("momentum update wrong: w=%v", p.W.At(0))
	}
}

func TestBatchNormEvalUsesRunningStats(t *testing.T) {
	l := NewBatchNorm2D(1, vec.ActIdentity)
	r := frand.New(31)
	x := tensor.Randn(r, 1, 8, 1, 4, 4)
	apply(x, func(v float32) float32 { return v + 5 }) // mean far from running mean of 0
	_ = l.Forward(x, true)
	yTrain := l.Forward(x, true)
	yEval := l.Forward(x, false)
	// Train mode normalizes to ~zero mean; eval with barely-updated running
	// stats (mean≈ small) must differ noticeably.
	if yTrain.AllClose(yEval, 1e-2) {
		t.Fatal("eval mode appears to use batch statistics")
	}
	var sum float64
	for _, v := range yTrain.Data() {
		sum += float64(v)
	}
	if mean := sum / float64(yTrain.Size()); math.Abs(mean) > 0.2 {
		t.Fatalf("train-mode output mean = %v, want ~0", mean)
	}
}

// TestBatchNormRejectsUnusableCalls: a training batch with no elements has no
// statistics (it used to divide by zero and write NaN into the running
// statistics), and Backward has nothing to differentiate before a training
// Forward or after an eval-mode one (it used to dereference nil, or reuse the
// previous batch's x̂).
func TestBatchNormRejectsUnusableCalls(t *testing.T) {
	mustPanic := func(name, want string, f func()) {
		t.Helper()
		defer func() {
			if msg := fmt.Sprint(recover()); !strings.Contains(msg, want) {
				t.Fatalf("%s: recovered %q, want a panic mentioning %q", name, msg, want)
			}
		}()
		f()
	}
	x := tensor.Randn(frand.New(32), 1, 2, 3, 4, 4)
	for _, shape := range [][]int{{0, 3, 4, 4}, {2, 3, 0, 4}} {
		l := NewBatchNorm2D(3, vec.ActIdentity)
		mustPanic(fmt.Sprint("empty batch ", shape), fmt.Sprint(shape), func() { l.Forward(tensor.New(shape...), true) })
		for i, v := range l.RunMean.Data() {
			if v != 0 || l.RunVar.Data()[i] != 1 {
				t.Fatalf("empty batch %v touched the running statistics: mean %v var %v", shape, l.RunMean.Data(), l.RunVar.Data())
			}
		}
		l.Forward(tensor.New(shape...), false) // eval mode needs no statistics
	}
	l := NewBatchNorm2D(3, vec.ActIdentity)
	mustPanic("backward first", "training Forward", func() { l.Backward(x) })
	l.Forward(x, true)
	l.Backward(x)
	l.Forward(x, false)
	mustPanic("backward after eval", "training Forward", func() { l.Backward(x) })
}

// TestBatchNormTrainStepAllocFree: after a warm-up batch, BatchNorm2D's
// forward + backward allocate nothing with any activation — the per-channel
// statistics and the reduction scratch are sized once per channel count.
func TestBatchNormTrainStepAllocFree(t *testing.T) {
	vectest.BothSettings(t, func(t *testing.T) {
		r := frand.New(33)
		for _, act := range vecBNActs {
			l := NewBatchNorm2D(12, act) // a vector tile and four Go channels
			l.SetArena(tensor.NewArena())
			x := tensor.Randn(r, 1, 4, 12, 5, 5)
			dy := tensor.Randn(r, 1, 4, 12, 5, 5)
			step := func() {
				l.arena.Reset()
				l.Forward(x, true)
				l.Backward(dy)
			}
			step()
			if avg := testing.AllocsPerRun(20, step); avg != 0 {
				t.Fatalf("batch-norm (act %d) train step allocates %.1f objects in steady state, want 0", act, avg)
			}
		}
	})
}

func TestChannelShuffleRoundTrip(t *testing.T) {
	r := frand.New(43)
	x := tensor.Randn(r, 1, 2, 6, 3, 3)
	l := NewChannelShuffle(3)
	y := l.Forward(x, false)
	back := l.Backward(y) // backward applies the inverse permutation
	if !back.AllClose(x, 0) {
		t.Fatal("shuffle backward is not the inverse permutation")
	}
}

func TestNumParamsAndNames(t *testing.T) {
	net := smallNet(1)
	if net.NumParams() == 0 {
		t.Fatal("no params found")
	}
	for _, p := range net.Params() {
		if p.Name == "" {
			t.Fatal("unnamed parameter")
		}
	}
	if net.Name() == "" {
		t.Fatal("empty network name")
	}
}

func BenchmarkForwardSmallCNN(b *testing.B) {
	net := smallNet(1)
	r := frand.New(1)
	x := tensor.Randn(r, 1, 10, 1, 32, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Forward(x, false)
	}
}

func BenchmarkTrainStepSmallCNN(b *testing.B) {
	net := smallNet(1)
	r := frand.New(1)
	x := tensor.Randn(r, 1, 10, 1, 32, 32)
	labels := make([]int, 10)
	opt := NewSGD(0.01, 0.9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := net.Forward(x, true)
		_, grad := evalGrad(SoftmaxCrossEntropy{}, out, ClassTarget(labels))
		net.Backward(grad)
		opt.Step(net.Params())
	}
}

func TestReshapeLayerRoundtrip(t *testing.T) {
	l := NewReshape(1, 1, 12)
	r := frand.New(1)
	x := tensor.Randn(r, 1, 3, 12)
	y := l.Forward(x, true)
	if y.Dim(0) != 3 || y.Dim(1) != 1 || y.Dim(3) != 12 {
		t.Fatalf("reshape forward %v", y.Shape())
	}
	g := l.Backward(y)
	if g.Dim(0) != 3 || g.Dim(1) != 12 {
		t.Fatalf("reshape backward %v", g.Shape())
	}
}
