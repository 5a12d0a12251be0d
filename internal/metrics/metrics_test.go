package metrics

import (
	"math"
	"testing"

	"heteroswitch/internal/dataset"
	"heteroswitch/internal/fl"
	"heteroswitch/internal/frand"
	"heteroswitch/internal/nn"
	"heteroswitch/internal/tensor"
	"heteroswitch/internal/vec"
)

func TestMeanVarianceWorst(t *testing.T) {
	vs := []float64{2, 4, 6}
	if Mean(vs) != 4 {
		t.Fatalf("Mean = %v", Mean(vs))
	}
	if math.Abs(Variance(vs)-8.0/3) > 1e-12 {
		t.Fatalf("Variance = %v", Variance(vs))
	}
	if Worst(vs) != 2 {
		t.Fatalf("Worst = %v", Worst(vs))
	}
	if Mean(nil) != 0 || Variance(nil) != 0 || Worst(nil) != 0 {
		t.Fatal("empty input should yield zeros")
	}
}

func TestDegradation(t *testing.T) {
	if d := Degradation(0.8, 0.6); math.Abs(d-0.25) > 1e-12 {
		t.Fatalf("Degradation = %v, want 0.25", d)
	}
	if Degradation(0, 0.5) != 0 {
		t.Fatal("zero reference should yield 0")
	}
	if Degradation(0.5, 0.6) >= 0 {
		t.Fatal("improvement should be negative degradation")
	}
}

func TestValuesOrdered(t *testing.T) {
	m := map[int]float64{2: 0.2, 0: 0.0, 1: 0.1}
	vs := Values(m)
	if len(vs) != 3 || vs[0] != 0 || vs[1] != 0.1 || vs[2] != 0.2 {
		t.Fatalf("Values = %v", vs)
	}
}

func TestAveragePrecisionPerfectRanking(t *testing.T) {
	scores := []float64{0.9, 0.8, 0.2, 0.1}
	rel := []bool{true, true, false, false}
	if ap := AveragePrecision(scores, rel); ap != 1 {
		t.Fatalf("perfect ranking AP = %v", ap)
	}
}

func TestAveragePrecisionWorstRanking(t *testing.T) {
	scores := []float64{0.1, 0.2, 0.8, 0.9}
	rel := []bool{true, true, false, false}
	// Positives at ranks 3 and 4: AP = (1/3 + 2/4)/2 = 5/12.
	if ap := AveragePrecision(scores, rel); math.Abs(ap-5.0/12) > 1e-12 {
		t.Fatalf("worst ranking AP = %v, want %v", ap, 5.0/12)
	}
}

func TestAveragePrecisionNoPositives(t *testing.T) {
	if ap := AveragePrecision([]float64{1, 2}, []bool{false, false}); ap != 0 {
		t.Fatalf("AP without positives = %v", ap)
	}
}

func TestMeanAveragePrecision(t *testing.T) {
	scores := tensor.FromSlice([]float32{
		0.9, 0.1,
		0.8, 0.9,
		0.1, 0.8,
	}, 3, 2)
	labels := tensor.FromSlice([]float32{
		1, 0,
		1, 1,
		0, 1,
	}, 3, 2)
	if m := MeanAveragePrecision(scores, labels); m != 1 {
		t.Fatalf("mAP = %v, want 1 for consistent rankings", m)
	}
	// A class with zero positives is skipped, not counted as zero.
	labels2 := tensor.FromSlice([]float32{1, 0, 1, 0, 0, 0}, 3, 2)
	if m := MeanAveragePrecision(scores, labels2); m != 1 {
		t.Fatalf("mAP with empty class = %v", m)
	}
}

// biasedDataset builds a dataset where class = 1 iff the mean pixel exceeds
// 0.5, plus a network that a quick training run can fit, to test Accuracy.
func makeEvalFixture() (*nn.Network, *dataset.Dataset) {
	r := frand.New(5)
	ds := &dataset.Dataset{NumClasses: 2}
	for i := 0; i < 30; i++ {
		x := tensor.New(1, 4, 4)
		label := i % 2
		base := float32(0.2)
		if label == 1 {
			base = 0.8
		}
		for j := range x.Data() {
			x.Data()[j] = base + float32(r.NormFloat64()*0.02)
		}
		ds.Samples = append(ds.Samples, dataset.Sample{X: x, Label: label, Device: i % 2})
	}
	net := nn.NewNetwork(
		nn.NewFlatten(),
		nn.NewDense(r, 16, 2),
	)
	opt := nn.NewSGD(0.5, 0)
	bs := dataset.GetBatchScratch()
	defer dataset.PutBatchScratch(bs)
	for e := 0; e < 30; e++ {
		x, _, labels := bs.Next(ds, 0, ds.Len())
		out := net.Forward(x, true)
		grad := tensor.New(out.Shape()...)
		nn.SoftmaxCrossEntropy{}.Eval(grad, out, nn.ClassTarget(labels))
		net.Backward(grad)
		opt.Step(net.Params())
	}
	return net, ds
}

func TestAccuracyOnLearnableProblem(t *testing.T) {
	net, ds := makeEvalFixture()
	acc := Accuracy(net, ds, 7) // odd batch exercises the remainder path
	if acc < 0.95 {
		t.Fatalf("accuracy %v on trivially separable data", acc)
	}
}

// byDevice groups samples by their capturing device index.
func byDevice(d *dataset.Dataset) map[int]*dataset.Dataset {
	out := map[int]*dataset.Dataset{}
	for _, s := range d.Samples {
		g, ok := out[s.Device]
		if !ok {
			g = &dataset.Dataset{NumClasses: d.NumClasses}
			out[s.Device] = g
		}
		g.Samples = append(g.Samples, s)
	}
	return out
}

// metrics.MeanLoss was a second spelling of fl.EvalLoss that no binary called;
// its tests hold the surviving function to the same contract.
func TestMeanLoss(t *testing.T) {
	net, ds := makeEvalFixture()
	l := fl.EvalLoss(net, nn.SoftmaxCrossEntropy{}, ds, 8)
	if l <= 0 || l > 1 {
		t.Fatalf("mean loss %v implausible for a fitted model", l)
	}
	if fl.EvalLoss(net, nn.SoftmaxCrossEntropy{}, &dataset.Dataset{NumClasses: 2}, 8) != 0 {
		t.Fatal("empty dataset loss should be 0")
	}
}

func TestAccuracyEmptyDataset(t *testing.T) {
	net, _ := makeEvalFixture()
	if Accuracy(net, &dataset.Dataset{NumClasses: 2}, 4) != 0 {
		t.Fatal("empty dataset accuracy should be 0")
	}
}

// makeConvEvalFixture builds a small BN-bearing conv classifier and a
// device-tagged dataset, briefly trained so the BN running statistics and
// weights are non-trivial — the fixture for fused-vs-reference routing.
func makeConvEvalFixture() (*nn.Network, *dataset.Dataset) {
	r := frand.New(6)
	ds := &dataset.Dataset{NumClasses: 3}
	for i := 0; i < 26; i++ {
		ds.Samples = append(ds.Samples, dataset.Sample{
			X: tensor.Randn(r, 0.8, 2, 6, 6), Label: i % 3, Device: i % 2,
		})
	}
	net := nn.NewNetwork(
		nn.NewConv2D(r, 2, 6, 3, 1, 1, 1),
		nn.NewBatchNorm2D(6, vec.ActIdentity),
		nn.NewReLU(),
		nn.NewGlobalAvgPool(),
		nn.NewDense(r, 6, 3),
	)
	opt := nn.NewSGD(0.05, 0.9)
	bs := dataset.GetBatchScratch()
	defer dataset.PutBatchScratch(bs)
	for e := 0; e < 5; e++ {
		x, _, labels := bs.Next(ds, 0, ds.Len())
		out := net.Forward(x, true)
		grad := tensor.New(out.Shape()...)
		nn.SoftmaxCrossEntropy{}.Eval(grad, out, nn.ClassTarget(labels))
		net.Backward(grad)
		opt.Step(net.Params())
	}
	return net, ds
}

// TestFusedEvalMatchesReference: every metrics entry point must return
// identical decisions (accuracy, per-device accuracy) and near-identical
// losses through the frozen fast path as the same loops give on the
// reference forward, (*nn.Network).Infer.
func TestFusedEvalMatchesReference(t *testing.T) {
	net, ds := makeConvEvalFixture()
	fusedAcc := Accuracy(net, ds, 7)
	fusedPer := map[int]float64{}
	for dev, sub := range byDevice(ds) {
		fusedPer[dev] = Accuracy(net, sub, 7)
	}
	fusedLoss := fl.EvalLoss(net, nn.SoftmaxCrossEntropy{}, ds, 7)

	bs := dataset.GetBatchScratch()
	defer dataset.PutBatchScratch(bs)
	refAcc := accuracyOn(net, bs, ds, 7)
	refPer := map[int]float64{}
	for dev, sub := range byDevice(ds) {
		refPer[dev] = accuracyOn(net, bs, sub, 7)
	}
	var refLoss float64
	bs.ForBatches(ds, 7, func(lo, hi int, x, _ *tensor.Tensor, labels []int) {
		refLoss += nn.SoftmaxCrossEntropy{}.Eval(nil, net.Infer(x), nn.ClassTarget(labels)) * float64(hi-lo)
	})
	refLoss /= float64(ds.Len())

	if fusedAcc != refAcc {
		t.Fatalf("fused accuracy %v != reference %v (argmax must be identical)", fusedAcc, refAcc)
	}
	if len(fusedPer) != len(refPer) {
		t.Fatalf("per-device map sizes differ: %d vs %d", len(fusedPer), len(refPer))
	}
	for dev, acc := range refPer {
		if fusedPer[dev] != acc {
			t.Fatalf("device %d: fused %v != reference %v", dev, fusedPer[dev], acc)
		}
	}
	if d := math.Abs(fusedLoss - refLoss); d > 1e-5 {
		t.Fatalf("fused mean loss diverges from reference by %.3g (tol 1e-5)", d)
	}
}
