package experiments

import (
	"fmt"

	"heteroswitch/internal/core"
	"heteroswitch/internal/dataset"
	"heteroswitch/internal/fl"
	"heteroswitch/internal/frand"
	"heteroswitch/internal/metrics"
	"heteroswitch/internal/models"
	"heteroswitch/internal/nn"
	"heteroswitch/internal/scene"
	"heteroswitch/internal/tensor"
)

// ColorJitterDevice is one of §6.5's synthetic device types: a fixed random
// contrast/brightness/saturation/hue rendering applied to every image the
// device "captures".
type ColorJitterDevice struct {
	Contrast, Brightness, Saturation, Hue float64
}

// RandomJitterDevice draws one device setting, matching §6.5's "10 different
// randomized settings for contrast, brightness, saturation, and hue".
func RandomJitterDevice(rng *frand.RNG) ColorJitterDevice {
	return ColorJitterDevice{
		Contrast:   rng.Uniform(0.6, 1.4),
		Brightness: rng.Uniform(-0.15, 0.15),
		Saturation: rng.Uniform(0.5, 1.5),
		Hue:        rng.Uniform(0, 0.25),
	}
}

// Apply renders a CHW tensor through the device setting in place.
func (d ColorJitterDevice) Apply(x *tensor.Tensor) {
	if x.NDim() != 3 || x.Dim(0) != 3 {
		return
	}
	hw := x.Dim(1) * x.Dim(2)
	data := x.Data()
	for i := 0; i < hw; i++ {
		r := float64(data[i])
		g := float64(data[hw+i])
		b := float64(data[2*hw+i])
		// Hue: blend toward the cyclically shifted channel order.
		r, g, b = (1-d.Hue)*r+d.Hue*g, (1-d.Hue)*g+d.Hue*b, (1-d.Hue)*b+d.Hue*r
		// Saturation around Rec.601 luma.
		l := 0.299*r + 0.587*g + 0.114*b
		r = l + d.Saturation*(r-l)
		g = l + d.Saturation*(g-l)
		b = l + d.Saturation*(b-l)
		// Contrast around mid-gray, then brightness.
		r = (r-0.5)*d.Contrast + 0.5 + d.Brightness
		g = (g-0.5)*d.Contrast + 0.5 + d.Brightness
		b = (b-0.5)*d.Contrast + 0.5 + d.Brightness
		data[i] = clampF32(r)
		data[hw+i] = clampF32(g)
		data[2*hw+i] = clampF32(b)
	}
}

func clampF32(v float64) float32 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return float32(v)
}

// Fig8Result compares FedAvg and HeteroSwitch across the 10 synthetic
// device types.
type Fig8Result struct {
	NumDevices int
	FedAvgAcc  []float64
	HeteroAcc  []float64
	FedAvg     MethodScore
	Hetero     MethodScore
}

// String renders the per-device accuracy series.
func (r *Fig8Result) String() string {
	t := &Table{
		Title:  "Figure 8 — synthetic device types (CIFAR-style scenes)",
		Header: []string{"device", "FedAvg", "HeteroSwitch"},
	}
	for i := 0; i < r.NumDevices; i++ {
		t.AddRow(fmt.Sprintf("jitter-%02d", i), pct(r.FedAvgAcc[i]), pct(r.HeteroAcc[i]))
	}
	t.AddRow("mean", pct(r.FedAvg.AvgAcc), pct(r.Hetero.AvgAcc))
	t.AddRow("variance(pp²)", fmt.Sprintf("%.2f", r.FedAvg.Variance), fmt.Sprintf("%.2f", r.Hetero.Variance))
	return t.String()
}

// Fig8 builds the synthetic-jitter federation and runs both methods with the
// SimpleCNN, as §6.5 does. The paper uses CIFAR-100; the scene generator
// stands in with 20 procedurally distinct classes at the same resolution.
func Fig8(opts Options) (*Fig8Result, error) {
	const numDevices = 10
	classes := 20
	gen := scene.NewSynthetic(classes, 48, opts.Seed^0xc1fa)
	rng := frand.New(opts.Seed ^ 0x5e77)

	devices := make([]ColorJitterDevice, numDevices)
	for i := range devices {
		devices[i] = RandomJitterDevice(rng)
	}

	perClassTrain := opts.scaled(6)
	perClassTest := opts.scaled(3)
	mkSet := func(perClass int, salt string) []scene.Scene {
		return gen.RenderSet(perClass, frand.New(opts.Seed).SplitNamed(salt))
	}
	trainScenes := mkSet(perClassTrain, "fig8-train")
	testScenes := mkSet(perClassTest, "fig8-test")

	capture := func(scenes []scene.Scene, dev int) *dataset.Dataset {
		ds := &dataset.Dataset{NumClasses: classes}
		for _, sc := range scenes {
			x := sc.Image.Resize(OutRes, OutRes).ToTensor()
			devices[dev].Apply(x)
			ds.Samples = append(ds.Samples, dataset.Sample{X: x, Label: sc.Class, Device: dev})
		}
		return ds
	}
	train := map[int]*dataset.Dataset{}
	test := map[int]*dataset.Dataset{}
	for d := 0; d < numDevices; d++ {
		train[d] = capture(trainScenes, d)
		test[d] = capture(testScenes, d)
	}

	builder, err := models.BuilderFor(models.ArchSimpleCNN, opts.Seed, 3, classes)
	if err != nil {
		return nil, err
	}
	cfg := opts.FLConfig(opts.scaled(80), 10, 10, 0.1)
	counts := EqualCounts(numDevices, opts.scaled(20))

	run := func(strat fl.Strategy) ([]float64, MethodScore, error) {
		srv, err := RunFLWithLoss(opts, strat, train, counts, cfg, builder, nn.SoftmaxCrossEntropy{})
		if err != nil {
			return nil, MethodScore{}, err
		}
		net := srv.GlobalNet()
		accByDev := map[int]float64{}
		for d := 0; d < numDevices; d++ {
			accByDev[d] = metrics.Accuracy(net, test[d], 16)
		}
		return metrics.Values(accByDev), scoreFromAccuracies(strat.Name(), accByDev), nil
	}

	res := &Fig8Result{NumDevices: numDevices}
	if res.FedAvgAcc, res.FedAvg, err = run(fl.FedAvg{}); err != nil {
		return nil, err
	}
	if res.HeteroAcc, res.Hetero, err = run(core.New()); err != nil {
		return nil, err
	}
	return res, nil
}
