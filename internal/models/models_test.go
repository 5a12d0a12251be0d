package models

import (
	"fmt"
	"math"
	"testing"

	"heteroswitch/internal/frand"
	"heteroswitch/internal/nn"
	"heteroswitch/internal/tensor"
)

func forwardShape(t *testing.T, net *nn.Network, inC, classes int) {
	t.Helper()
	r := frand.New(2)
	x := tensor.Randn(r, 1, 3, inC, 32, 32)
	y := net.Forward(x, false)
	if y.Dim(0) != 3 || y.Dim(1) != classes {
		t.Fatalf("output shape %v, want [3 %d]", y.Shape(), classes)
	}
	if y.HasNaN() {
		t.Fatal("forward produced NaN")
	}
}

// evalGrad is Loss.Eval into a freshly allocated gradient buffer.
func evalGrad(l nn.Loss, pred *tensor.Tensor, target nn.Target) (float64, *tensor.Tensor) {
	grad := tensor.New(pred.Shape()...)
	return l.Eval(grad, pred, target), grad
}

func trainStepWorks(t *testing.T, net *nn.Network, inC, classes int) {
	t.Helper()
	r := frand.New(3)
	x := tensor.Randn(r, 1, 4, inC, 32, 32)
	labels := []int{0, 1, 2 % classes, 0}
	out := net.Forward(x, true)
	loss, grad := evalGrad(nn.SoftmaxCrossEntropy{}, out, nn.ClassTarget(labels))
	if loss <= 0 {
		t.Fatalf("implausible loss %v", loss)
	}
	net.Backward(grad)
	opt := nn.NewSGD(0.01, 0)
	opt.Step(net.Params())
	out2 := net.Forward(x, true)
	if out2.HasNaN() {
		t.Fatal("NaN after one training step")
	}
}

func TestTinyMobileNetV3(t *testing.T) {
	net := TinyMobileNetV3(frand.New(1), 3, 12)
	forwardShape(t, net, 3, 12)
	trainStepWorks(t, net, 3, 12)
}

func TestTinyShuffleNetV2(t *testing.T) {
	net := TinyShuffleNetV2(frand.New(1), 3, 12)
	forwardShape(t, net, 3, 12)
	trainStepWorks(t, net, 3, 12)
}

func TestTinySqueezeNet(t *testing.T) {
	net := TinySqueezeNet(frand.New(1), 3, 12)
	forwardShape(t, net, 3, 12)
	trainStepWorks(t, net, 3, 12)
}

func TestSimpleCNN(t *testing.T) {
	net := SimpleCNN(frand.New(1), 3, 20)
	forwardShape(t, net, 3, 20)
	trainStepWorks(t, net, 3, 20)
}

func TestBuilderDeterministic(t *testing.T) {
	for _, arch := range []Arch{ArchMobileNet, ArchShuffleNet, ArchSqueezeNet, ArchSimpleCNN} {
		b, err := BuilderFor(arch, 7, 3, 12)
		if err != nil {
			t.Fatal(err)
		}
		n1, n2 := b(), b()
		p1, p2 := n1.Params(), n2.Params()
		if len(p1) != len(p2) {
			t.Fatalf("%s: param count differs between builds", arch)
		}
		for i := range p1 {
			if !p1[i].W.AllClose(p2[i].W, 0) {
				t.Fatalf("%s: param %d differs between builds", arch, i)
			}
		}
	}
}

func TestBuilderUnknownArch(t *testing.T) {
	if _, err := BuilderFor("no-such-net", 1, 3, 12); err == nil {
		t.Fatal("expected error for unknown architecture")
	}
}

func TestWeightsTransferAcrossBuilds(t *testing.T) {
	b, _ := BuilderFor(ArchMobileNet, 11, 3, 12)
	n1 := b()
	n2 := b()
	// Perturb n1, snapshot, load into n2, confirm identical outputs.
	w0 := n1.Params()[0].W.Data()
	for i := range w0 {
		w0[i] += 0.1
	}
	if err := n2.LoadWeights(n1.Snapshot()); err != nil {
		t.Fatal(err)
	}
	r := frand.New(5)
	x := tensor.Randn(r, 1, 2, 3, 32, 32)
	if !n1.Forward(x, false).AllClose(n2.Forward(x, false), 1e-6) {
		t.Fatal("weight transfer did not reproduce outputs")
	}
}

func TestParamCountsReasonable(t *testing.T) {
	cases := []struct {
		name     string
		net      *nn.Network
		min, max int
	}{
		{"mobilenet", TinyMobileNetV3(frand.New(1), 3, 12), 2000, 100000},
		{"shufflenet", TinyShuffleNetV2(frand.New(1), 3, 12), 1500, 100000},
		{"squeezenet", TinySqueezeNet(frand.New(1), 3, 12), 1000, 100000},
		{"simplecnn", SimpleCNN(frand.New(1), 3, 20), 5000, 500000},
	}
	for _, c := range cases {
		n := c.net.NumParams()
		if n < c.min || n > c.max {
			t.Errorf("%s has %d params, want in [%d,%d]", c.name, n, c.min, c.max)
		}
	}
}

func BenchmarkMobileNetForward(b *testing.B) {
	net := TinyMobileNetV3(frand.New(1), 3, 12)
	x := tensor.Randn(frand.New(2), 1, 10, 3, 32, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Forward(x, false)
	}
}

// BenchmarkFrozenInfer is perfbook serve_wall's request without the server:
// TinyMobileNetV3's frozen forward at batch 1 (one request) and 16, at the
// default intra-op budget, with its cost per sample. allocs/op must stay 0.
func BenchmarkFrozenInfer(b *testing.B) {
	for _, n := range []int{1, 16} {
		b.Run(fmt.Sprintf("mobilenet/b%d", n), func(b *testing.B) {
			f := TinyMobileNetV3(frand.New(1), 3, 12).Freeze()
			x := tensor.Randn(frand.New(2), 1, n, 3, 32, 32)
			f.Infer(x)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.Infer(x)
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N)/float64(n), "µs/sample")
		})
	}
}

func BenchmarkShuffleNetForward(b *testing.B) {
	net := TinyShuffleNetV2(frand.New(1), 3, 12)
	x := tensor.Randn(frand.New(2), 1, 10, 3, 32, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Forward(x, false)
	}
}

func TestECGConvNet(t *testing.T) {
	net := ECGConvNet(frand.New(1), 256)
	r := frand.New(2)
	x := tensor.Randn(r, 1, 5, 256)
	y := net.Forward(x, false)
	if y.Dim(0) != 5 || y.Dim(1) != 1 {
		t.Fatalf("ECG net output %v", y.Shape())
	}
	// One training step must run without NaN.
	out := net.Forward(x, true)
	target := tensor.New(5, 1)
	target.Fill(0.4)
	loss, grad := evalGrad(nn.MSE{}, out, nn.DenseTarget(target))
	if loss <= 0 {
		t.Fatalf("loss %v", loss)
	}
	net.Backward(grad)
	opt := nn.NewSGD(0.01, 0)
	opt.Step(net.Params())
	if net.Forward(x, true).HasNaN() {
		t.Fatal("NaN after step")
	}
}

// TestFrozenMatchesReferencePerArch is the model-level frozen-vs-reference
// contract: for every architecture in the registry (and the ECG conv
// regressor), a few training steps move the weights and BN running
// statistics, then the frozen inference view must match the reference eval
// forward within 1e-5 max-abs with identical argmax rows. SqueezeNet has no
// BatchNorm, so its frozen forward must be bit-exact.
func TestFrozenMatchesReferencePerArch(t *testing.T) {
	archs := []struct {
		arch  Arch
		exact bool
	}{
		{ArchMobileNet, false},
		{ArchShuffleNet, false},
		{ArchSqueezeNet, true}, // no BN anywhere: pure fusion, tol 0
		{ArchSimpleCNN, false},
	}
	for _, tc := range archs {
		t.Run(string(tc.arch), func(t *testing.T) {
			builder, err := BuilderFor(tc.arch, 11, 3, 12)
			if err != nil {
				t.Fatal(err)
			}
			net := builder()
			r := frand.New(4)
			opt := nn.NewSGD(0.01, 0.9)
			for step := 0; step < 4; step++ {
				x := tensor.Randn(r, 1, 4, 3, 32, 32)
				labels := []int{step % 12, (step + 3) % 12, (step + 5) % 12, (step + 7) % 12}
				out := net.Forward(x, true)
				_, grad := evalGrad(nn.SoftmaxCrossEntropy{}, out, nn.ClassTarget(labels))
				net.Backward(grad)
				opt.Step(net.Params())
			}
			x := tensor.Randn(r, 1, 5, 3, 32, 32)
			want := net.Forward(x, false).Clone()
			got := net.Freeze().Infer(x).Clone()
			const tol = 1e-5
			var maxd float64
			for i, v := range got.Data() {
				d := float64(v) - float64(want.Data()[i])
				if d < 0 {
					d = -d
				}
				if d > maxd {
					maxd = d
				}
				if tc.exact && v != want.Data()[i] {
					t.Fatalf("BN-free arch must be bit-exact; element %d: %v != %v", i, v, want.Data()[i])
				}
			}
			if maxd > tol {
				t.Fatalf("frozen output diverges: max-abs %.3g > %g", maxd, tol)
			}
			wantArg, gotArg := want.ArgMaxRows(), got.ArgMaxRows()
			for i := range wantArg {
				if gotArg[i] != wantArg[i] {
					t.Fatalf("argmax differs at row %d: frozen %d, reference %d", i, gotArg[i], wantArg[i])
				}
			}
		})
	}
}

// TestFrozenECGConvNet covers the Reshape-fronted 1-D conv regressor.
func TestFrozenECGConvNet(t *testing.T) {
	net := ECGConvNet(frand.New(9), 64)
	r := frand.New(10)
	opt := nn.NewSGD(0.05, 0.9)
	for step := 0; step < 3; step++ {
		x := tensor.Randn(r, 1, 4, 64)
		target := tensor.Randn(r, 1, 4, 1)
		out := net.Forward(x, true)
		_, grad := evalGrad(nn.MSE{}, out, nn.DenseTarget(target))
		net.Backward(grad)
		opt.Step(net.Params())
	}
	x := tensor.Randn(r, 1, 3, 64)
	want := net.Forward(x, false).Clone()
	got := net.Freeze().Infer(x)
	const tol = 1e-5
	for i, v := range got.Data() {
		d := float64(v) - float64(want.Data()[i])
		if d < 0 {
			d = -d
		}
		if d > tol {
			t.Fatalf("frozen ECG output diverges at %d: %.3g", i, d)
		}
	}
}

// TestBackwardParamsMatchesBackward: Network.BackwardParams accumulates every
// parameter gradient Backward accumulates, bit for bit, on all four image
// models — whose first layer with parameters is the stem conv, nested in a
// conv-BN network in ShuffleNet and SimpleCNN — and on ECGConvNet, whose
// first layer, a Reshape, has none: two batches accumulate before each of two
// SGD steps, and every gradient is compared before each step.
func TestBackwardParamsMatchesBackward(t *testing.T) {
	image := func(r *frand.RNG) *tensor.Tensor { return tensor.Randn(r, 1, 3, 3, 32, 32) }
	labels := func(r *frand.RNG, pred *tensor.Tensor) nn.Target {
		l := make([]int, pred.Dim(0))
		for i := range l {
			l[i] = r.Intn(pred.Dim(1))
		}
		return nn.ClassTarget(l)
	}
	type model struct {
		name   string
		build  Builder
		loss   nn.Loss
		x      func(r *frand.RNG) *tensor.Tensor
		target func(r *frand.RNG, pred *tensor.Tensor) nn.Target
	}
	var ms []model
	for _, arch := range []Arch{ArchMobileNet, ArchShuffleNet, ArchSqueezeNet, ArchSimpleCNN} {
		b, err := BuilderFor(arch, 23, 3, 10)
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, model{string(arch), b, nn.SoftmaxCrossEntropy{}, image, labels})
	}
	ms = append(ms, model{"ecgconvnet", ECGConvBuilder(23, 128), nn.MSE{},
		func(r *frand.RNG) *tensor.Tensor { return tensor.Randn(r, 1, 3, 128) },
		func(r *frand.RNG, pred *tensor.Tensor) nn.Target {
			return nn.DenseTarget(tensor.Randn(r, 1, pred.Dim(0), 1))
		}})
	for _, m := range ms {
		full, params := m.build(), m.build()
		optFull, optParams := nn.NewSGD(0.05, 0.9), nn.NewSGD(0.05, 0.9)
		r := frand.New(29)
		for step := 0; step < 2; step++ {
			for batch := 0; batch < 2; batch++ {
				x := m.x(r)
				out := full.Forward(x, true)
				target := m.target(r, out)
				_, g := evalGrad(m.loss, out, target)
				full.Backward(g)
				_, g = evalGrad(m.loss, params.Forward(x, true), target)
				params.BackwardParams(g)
			}
			want, got := full.Params(), params.Params()
			for i := range want {
				wd, gd := want[i].Grad.Data(), got[i].Grad.Data()
				for j := range wd {
					if math.Float32bits(gd[j]) != math.Float32bits(wd[j]) {
						t.Fatalf("%s step %d: %s gradient[%d] = %v, Backward's is %v", m.name, step, want[i].Name, j, gd[j], wd[j])
					}
				}
			}
			optFull.Step(full.Params())
			optParams.Step(params.Params())
		}
	}
}
