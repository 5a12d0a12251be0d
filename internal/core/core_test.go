package core

import (
	"math"
	"testing"

	"heteroswitch/internal/dataset"
	"heteroswitch/internal/fl"
	"heteroswitch/internal/frand"
	"heteroswitch/internal/nn"
	"heteroswitch/internal/tensor"
)

func imgTensor(c, h, w int, fill float32) *tensor.Tensor {
	t := tensor.New(c, h, w)
	t.Fill(fill)
	return t
}

func TestRandomWBGammaPreservesShapeAndRange(t *testing.T) {
	rng := frand.New(1)
	tf := RandomWBGamma(0.3, 0.5)
	x := imgTensor(3, 8, 8, 0.5)
	tf(x, rng)
	if x.Dim(0) != 3 || x.Dim(1) != 8 {
		t.Fatalf("shape changed: %v", x.Shape())
	}
	for _, v := range x.Data() {
		if !(v >= 0 && v <= 1) {
			t.Fatalf("value outside the [0, 1] that clamp-then-power guarantees: %v", v)
		}
	}
}

func TestRandomWBGammaActuallyPerturbs(t *testing.T) {
	rng := frand.New(2)
	tf := RandomWBGamma(0.2, 0.9)
	x := imgTensor(3, 4, 4, 0.5)
	orig := x.Clone()
	tf(x, rng)
	if x.AllClose(orig, 1e-6) {
		t.Fatal("transform changed nothing at high degrees")
	}
}

func TestRandomWBGammaTinyDegreesNearIdentityWB(t *testing.T) {
	// Appendix: WB degree 0.001 — per-channel gains within ±0.1%.
	rng := frand.New(3)
	tf := RandomWBGamma(0.001, 0.0)
	x := imgTensor(3, 4, 4, 0.5)
	tf(x, rng)
	for _, v := range x.Data() {
		if math.Abs(float64(v)-0.5) > 0.001 {
			t.Fatalf("WB at degree 0.001 moved value to %v", v)
		}
	}
}

func TestGammaDirection(t *testing.T) {
	// γ < 1 brightens mid-tones, γ > 1 darkens: 0.25^0.5 = 0.5 and
	// 0.25^1.5 = 0.125, both exact in float32.
	for _, c := range []struct{ gamma, want float64 }{{0.5, 0.5}, {1.5, 0.125}} {
		x := imgTensor(3, 2, 2, 0.25)
		powSweep(x.Data(), 1, c.gamma)
		for _, v := range x.Data() {
			if float64(v) != c.want {
				t.Fatalf("γ=%v took mid-tone 0.25 to %v, want %v", c.gamma, v, c.want)
			}
		}
	}
	x := imgTensor(3, 2, 2, 0.25)
	GammaOnly(0)(x, frand.New(1)) // degree 0 → γ=1 exactly
	for _, v := range x.Data() {
		if v != 0.25 {
			t.Fatalf("γ=1 altered value: %v", v)
		}
	}
}

func TestTransformDatasetIsACopy(t *testing.T) {
	ds := &dataset.Dataset{NumClasses: 2}
	for i := 0; i < 4; i++ {
		ds.Samples = append(ds.Samples, dataset.Sample{X: imgTensor(3, 4, 4, 0.5), Label: i % 2, Device: 3})
	}
	out := TransformDataset(ds, RandomWBGamma(0.3, 0.9), frand.New(5))
	if out.Len() != 4 || out.NumClasses != 2 {
		t.Fatalf("copy malformed: %d/%d", out.Len(), out.NumClasses)
	}
	for i := range ds.Samples {
		if ds.Samples[i].X.Data()[0] != 0.5 {
			t.Fatal("original dataset mutated")
		}
		if out.Samples[i].Label != ds.Samples[i].Label || out.Samples[i].Device != 3 {
			t.Fatal("labels/device tags not preserved")
		}
	}
}

func TestGaussianSmoothReducesVariance(t *testing.T) {
	rng := frand.New(7)
	sig := make([]float32, 128)
	for i := range sig {
		sig[i] = float32(rng.NormFloat64())
	}
	out := gaussianSmooth(sig, 2.0)
	if variance32(out) >= variance32(sig) {
		t.Fatalf("smoothing increased variance: %v -> %v", variance32(sig), variance32(out))
	}
	// Mean should be approximately preserved.
	if math.Abs(mean32(out)-mean32(sig)) > 0.05 {
		t.Fatalf("smoothing shifted mean: %v -> %v", mean32(sig), mean32(out))
	}
}

func variance32(v []float32) float64 {
	m := mean32(v)
	var s float64
	for _, x := range v {
		d := float64(x) - m
		s += d * d
	}
	return s / float64(len(v))
}

func mean32(v []float32) float64 {
	var s float64
	for _, x := range v {
		s += float64(x)
	}
	return s / float64(len(v))
}

func TestRandomGaussianFilterTransform(t *testing.T) {
	rng := frand.New(9)
	x := tensor.New(64)
	for i := range x.Data() {
		x.Data()[i] = float32(rng.NormFloat64())
	}
	orig := x.Clone()
	RandomGaussianFilter(1, 3)(x, rng)
	if x.AllClose(orig, 1e-9) {
		t.Fatal("gaussian filter changed nothing")
	}
}

func TestAffineJitterPreservesShape(t *testing.T) {
	rng := frand.New(11)
	x := tensor.New(3, 8, 8)
	for i := range x.Data() {
		x.Data()[i] = float32(rng.Float64())
	}
	AffineJitter(0.5)(x, rng)
	if x.Dim(0) != 3 || x.Dim(1) != 8 || x.Dim(2) != 8 {
		t.Fatalf("shape changed: %v", x.Shape())
	}
	if x.HasNaN() {
		t.Fatal("NaN after affine jitter")
	}
}

func TestGaussianNoiseBounded(t *testing.T) {
	rng := frand.New(13)
	x := imgTensor(3, 8, 8, 0.5)
	GaussianNoise(0.9)(x, rng)
	for _, v := range x.Data() {
		if v < 0 || v > 1 {
			t.Fatalf("noise exceeded [0,1]: %v", v)
		}
	}
}

// FL integration fixtures ----------------------------------------------------

// toyPopulation encodes class SPATIALLY (top-half bright vs bottom-half
// bright) rather than by global brightness: HeteroSwitch's gamma transform
// is designed to erase global tone cues, so a brightness-coded toy problem
// would be (correctly!) destroyed by the method under test. Devices differ
// by a brightness offset — a toy system-induced shift the transform removes.
func toyPopulation(seed uint64) ([]*fl.Client, map[int]*dataset.Dataset) {
	r := frand.New(seed)
	perDevice := map[int]*dataset.Dataset{}
	for dev := 0; dev < 2; dev++ {
		ds := &dataset.Dataset{NumClasses: 2}
		offset := float32(dev) * 0.1
		for i := 0; i < 24; i++ {
			label := i % 2
			x := tensor.New(1, 4, 4)
			for row := 0; row < 4; row++ {
				bright := (label == 0 && row < 2) || (label == 1 && row >= 2)
				for col := 0; col < 4; col++ {
					v := float32(0.15) + offset + float32(r.NormFloat64()*0.04)
					if bright {
						v += 0.6
					}
					x.Data()[row*4+col] = v // [0, row, col] of a [1 4 4] image
				}
			}
			ds.Samples = append(ds.Samples, dataset.Sample{X: x, Label: label, Device: dev})
		}
		perDevice[dev] = ds
	}
	clients, err := fl.BuildPopulation(perDevice, []int{3, 3}, seed)
	if err != nil {
		panic(err)
	}
	return clients, perDevice
}

func toyBuilder() fl.Builder {
	return func() *nn.Network {
		r := frand.New(77)
		return nn.NewNetwork(nn.NewFlatten(), nn.NewDense(r, 16, 2))
	}
}

func TestHeteroSwitchEndToEnd(t *testing.T) {
	clients, perDevice := toyPopulation(21)
	cfg := fl.Config{Rounds: 8, ClientsPerRound: 4, BatchSize: 4, LocalEpochs: 1, LR: 0.2, Seed: 5, Workers: 2}
	hs := New()
	srv, err := fl.NewServer(cfg, toyBuilder(), nn.SoftmaxCrossEntropy{}, hs, clients)
	if err != nil {
		t.Fatal(err)
	}
	srv.Run(nil)
	if _, has := hs.LEMA(); !has {
		t.Fatal("L_EMA never initialized")
	}
	net := srv.GlobalNet()
	correct, total := 0, 0
	bs := dataset.GetBatchScratch()
	defer dataset.PutBatchScratch(bs)
	for _, ds := range perDevice {
		x, _, labels := bs.Next(ds, 0, ds.Len())
		for i, p := range net.Forward(x, false).ArgMaxRows() {
			if p == labels[i] {
				correct++
			}
			total++
		}
	}
	if acc := float64(correct) / float64(total); acc < 0.85 {
		t.Fatalf("HeteroSwitch accuracy %v on separable toy problem", acc)
	}
}

func TestLEMAFollowsEq1(t *testing.T) {
	hs := New()
	mk := func(loss float64) []fl.ClientResult {
		w := nn.Weights{Params: []*tensor.Tensor{tensor.Full(1, 2)}}
		return []fl.ClientResult{{NumSamples: 2, Weights: w, TrainLoss: loss}}
	}
	global := nn.Weights{Params: []*tensor.Tensor{tensor.Full(1, 2)}}
	cfg := fl.Default()

	aggregate := func(results []fl.ClientResult) {
		acc := hs.NewAccumulator(global, cfg)
		for _, r := range results {
			acc.Fold(r, 1)
		}
		acc.FinalizeInto(global.Zero())
	}
	aggregate(mk(2.0))
	if l, has := hs.LEMA(); !has || l != 2.0 {
		t.Fatalf("first LEMA = %v (has=%v), want 2.0", l, has)
	}
	aggregate(mk(1.0))
	want := 0.9*1.0 + 0.1*2.0
	if l, _ := hs.LEMA(); math.Abs(l-want) > 1e-9 {
		t.Fatalf("second LEMA = %v, want %v", l, want)
	}
}

func TestSwitchLogic(t *testing.T) {
	// Construct a context where we can control L_init vs L_EMA.
	clients, _ := toyPopulation(31)
	client := clients[0]
	cfg := fl.Config{Rounds: 1, ClientsPerRound: 1, BatchSize: 4, LocalEpochs: 1, LR: 0.05, Seed: 1, Workers: 1}
	builder := toyBuilder()

	runUpdate := func(hs *HeteroSwitch) fl.ClientResult {
		net := builder()
		global := net.Snapshot()
		ctx := &fl.ClientContext{
			Net: net, Global: global, Client: client, Cfg: cfg,
			Loss: nn.SoftmaxCrossEntropy{}, Round: 0, RNG: frand.New(3),
		}
		return hs.LocalUpdate(ctx)
	}

	// Without LEMA, full mode must not transform (switches off): the result
	// equals plain FedAvg local training.
	hsOff := New()
	resOff := runUpdate(hsOff)

	fedNet := builder()
	fedGlobal := fedNet.Snapshot()
	fedCtx := &fl.ClientContext{Net: fedNet, Global: fedGlobal, Client: client, Cfg: cfg,
		Loss: nn.SoftmaxCrossEntropy{}, Round: 0, RNG: frand.New(3)}
	resFed := fl.FedAvg{}.LocalUpdate(fedCtx)
	for i := range resOff.Weights.Params {
		if !resOff.Weights.Params[i].AllClose(resFed.Weights.Params[i], 1e-6) {
			t.Fatal("switched-off HeteroSwitch should match FedAvg local update")
		}
	}

	// With a huge LEMA, Switch1 and Switch2 both fire, and the SWAD-averaged
	// weights differ from the plain final weights.
	hsOn := New()
	hsOn.mu.Lock()
	hsOn.lema = 1e9
	hsOn.hasLEMA = true
	hsOn.mu.Unlock()
	resOn := runUpdate(hsOn)
	same := true
	for i := range resOn.Weights.Params {
		if !resOn.Weights.Params[i].AllClose(resFed.Weights.Params[i], 1e-7) {
			same = false
		}
	}
	if same {
		t.Fatal("switched-on HeteroSwitch returned weights identical to FedAvg")
	}
}

func TestModesBehave(t *testing.T) {
	if NewWithMode(ModeTransformOnly).Name() != "ISP-Transformation" {
		t.Fatal("mode name wrong")
	}
	if NewWithMode(ModeTransformSWAD).Name() != "ISP+SWAD" {
		t.Fatal("mode name wrong")
	}
	if New().Name() != "HeteroSwitch" {
		t.Fatal("mode name wrong")
	}
	// All three modes should run end-to-end without issue.
	for _, mode := range []Mode{ModeFull, ModeTransformOnly, ModeTransformSWAD} {
		clients, _ := toyPopulation(41)
		cfg := fl.Config{Rounds: 3, ClientsPerRound: 3, BatchSize: 4, LocalEpochs: 1, LR: 0.1, Seed: 2, Workers: 1}
		srv, err := fl.NewServer(cfg, toyBuilder(), nn.SoftmaxCrossEntropy{}, NewWithMode(mode), clients)
		if err != nil {
			t.Fatal(err)
		}
		srv.Run(nil)
		for _, p := range srv.Global.Params {
			if p.HasNaN() {
				t.Fatalf("mode %v produced NaN", mode)
			}
		}
	}
}

func TestHeteroSwitchDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) nn.Weights {
		clients, _ := toyPopulation(51)
		cfg := fl.Config{Rounds: 4, ClientsPerRound: 4, BatchSize: 4, LocalEpochs: 1, LR: 0.1, Seed: 9, Workers: workers}
		srv, err := fl.NewServer(cfg, toyBuilder(), nn.SoftmaxCrossEntropy{}, New(), clients)
		if err != nil {
			t.Fatal(err)
		}
		srv.Run(nil)
		return srv.Global
	}
	want := run(1)
	for _, workers := range []int{2, 3, 4} {
		got := run(workers)
		for i, p := range got.Params {
			for j, v := range p.Data() {
				if math.Float32bits(v) != math.Float32bits(want.Params[i].Data()[j]) {
					t.Fatalf("workers=%d: param %d element %d is %v, want %v (bit-identical)",
						workers, i, j, v, want.Params[i].Data()[j])
				}
			}
		}
	}
}
