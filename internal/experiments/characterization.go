package experiments

import (
	"fmt"

	"heteroswitch/internal/dataset"
	"heteroswitch/internal/device"
	"heteroswitch/internal/fl"
	"heteroswitch/internal/frand"
	"heteroswitch/internal/isp"
	"heteroswitch/internal/metrics"
	"heteroswitch/internal/nn"
	"heteroswitch/internal/parallel"
	"heteroswitch/internal/scene"
)

// Fig1Result reproduces Figure 1's headline comparison: FL accuracy when all
// clients share one device type versus a heterogeneous mix.
type Fig1Result struct {
	HomogeneousDevice string
	HomogeneousAcc    float64 // tested on the same device type
	HeterogeneousAcc  float64 // mixed clients, tested across all devices
	DegradationPct    float64
}

// String renders the result.
func (r *Fig1Result) String() string {
	t := &Table{
		Title:  "Figure 1 — homogeneous vs heterogeneous clients",
		Header: []string{"setting", "accuracy"},
	}
	t.AddRow("homogeneous ("+r.HomogeneousDevice+")", pct(r.HomogeneousAcc))
	t.AddRow("heterogeneous (market-share mix)", pct(r.HeterogeneousAcc))
	t.AddRow("degradation", fmt.Sprintf("%.1f%%", r.DegradationPct))
	return t.String()
}

// Fig1 runs the homogeneity experiment. Both arms see the same TOTAL data
// volume: the homogeneous population is nine same-type (S9) phones each
// photographing the shared scene set (distinct sensor-noise realizations),
// mirroring how the heterogeneous arm is nine different phones doing so.
func Fig1(opts Options) (*Fig1Result, error) {
	dd, err := BuildDeviceData(opts, opts.scaled(8), opts.scaled(PerClassTest), dataset.ModeProcessed)
	if err != nil {
		return nil, err
	}
	cfg := opts.FLConfig(opts.scaled(60), 8, 10, 0.1)
	builder := SimpleCNNBuilder(opts.Seed, dd.Classes)

	// Homogeneous: re-capture the scene set with eight more S9 replicas so
	// the pool matches the heterogeneous arm's size, then give it to all
	// clients and evaluate on S9.
	s9 := dd.DeviceIndex("S9")
	trainScenes, _, _ := sceneSets(opts.Seed, opts.scaled(8), 0)
	var devs []*device.Profile
	var tags []int
	var rngs []*frand.RNG
	for rep := 1; rep < len(dd.Profiles); rep++ {
		devs, tags = append(devs, dd.Profiles[s9]), append(tags, s9)
		rngs = append(rngs, frand.New(opts.Seed^uint64(rep)*0xfeed))
	}
	replicas, err := dataset.CaptureDevices(trainScenes, devs, dataset.ModeProcessed, OutRes, dd.Classes, tags, rngs, opts.Workers)
	if err != nil {
		return nil, err
	}
	pool := append([]*dataset.Dataset{dd.Train[s9]}, replicas...)
	homoTrain := map[int]*dataset.Dataset{s9: dataset.Concat(pool...)}
	homoCounts := make([]int, len(dd.Profiles))
	homoCounts[s9] = 20
	tr, _, err := NewFL(opts, fl.FedAvg{}, homoTrain, homoCounts, cfg, builder, nn.SoftmaxCrossEntropy{})
	if err != nil {
		return nil, err
	}
	homo := Evaluate(tr, fl.FedAvg{}.Name(), dd.Test[s9:s9+1], nil)
	homoAcc := homo.PerDevice[0]

	// Heterogeneous: market-share mix, evaluated on the pooled test set.
	tr, _, err = NewFL(opts, fl.FedAvg{}, dd.Train, MarketShareCounts(dd, 20), cfg, builder, nn.SoftmaxCrossEntropy{})
	if err != nil {
		return nil, err
	}
	hetero := Evaluate(tr, fl.FedAvg{}.Name(), []*dataset.Dataset{dd.AllTest()}, nil)
	heteroAcc := hetero.PerDevice[0]

	return &Fig1Result{
		HomogeneousDevice: "S9",
		HomogeneousAcc:    homoAcc,
		HeterogeneousAcc:  heteroAcc,
		DegradationPct:    metrics.Degradation(homoAcc, heteroAcc) * 100,
	}, nil
}

// CrossDeviceResult is the Table 2 (processed) or Fig 2 (RAW) matrix: train
// per device, test everywhere.
type CrossDeviceResult struct {
	Mode        dataset.CaptureMode
	DeviceNames []string
	// Acc[i][j] = accuracy of the model trained on device i, tested on j.
	Acc [][]float64
	// Degradation[i][j] = (Acc[i][i]-Acc[i][j])/Acc[i][i]; 0 on diagonal.
	Degradation [][]float64
	// MeanOthersRow[i] = mean degradation of train-device i on the others.
	MeanOthersRow []float64
	// MeanOthersCol[j] = mean degradation observed on test device j.
	MeanOthersCol []float64
}

// String renders the degradation matrix in Table 2's layout.
func (r *CrossDeviceResult) String() string {
	title := "Table 2 — cross-device model quality degradation (processed images)"
	if r.Mode == dataset.ModeRAW {
		title = "Figure 2 — cross-device model quality degradation (RAW data)"
	}
	t := &Table{Title: title, Header: append(append([]string{"train\\test"}, r.DeviceNames...), "MeanOthers")}
	n := len(r.DeviceNames)
	for i := 0; i < n; i++ {
		row := []string{r.DeviceNames[i]}
		for j := 0; j < n; j++ {
			if i == j {
				row = append(row, "-")
			} else {
				row = append(row, fmt.Sprintf("%.1f%%", r.Degradation[i][j]*100))
			}
		}
		row = append(row, fmt.Sprintf("%.1f%%", r.MeanOthersRow[i]*100))
		t.AddRow(row...)
	}
	col := []string{"MeanOthers"}
	for j := 0; j < n; j++ {
		col = append(col, fmt.Sprintf("%.1f%%", r.MeanOthersCol[j]*100))
	}
	col = append(col, "")
	t.AddRow(col...)
	return t.String()
}

// CrossDevice trains one centralized model per device type and evaluates it
// on every device's test set (Table 2 with processed images, Fig 2 with
// ModeRAW). The per-device models train side by side on opts.Workers, each
// with its own RNG and arena, so the matrix is byte-identical at every worker
// count.
func CrossDevice(opts Options, mode dataset.CaptureMode) (*CrossDeviceResult, error) {
	dd, err := BuildDeviceData(opts, opts.scaled(8), opts.scaled(PerClassTest), mode)
	if err != nil {
		return nil, err
	}
	n := len(dd.Profiles)
	res := &CrossDeviceResult{Mode: mode}
	for _, p := range dd.Profiles {
		res.DeviceNames = append(res.DeviceNames, p.Name)
	}
	res.Acc = make([][]float64, n)
	res.Degradation = make([][]float64, n)
	res.MeanOthersRow = make([]float64, n)
	res.MeanOthersCol = make([]float64, n)
	epochs := opts.scaled(25)

	builder := SimpleCNNBuilder(opts.Seed, dd.Classes)
	budget := parallel.Share(opts.IntraOp, opts.Workers)
	parallel.For(opts.Workers, n, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			net := builder()
			net.SetIntraOp(budget)
			TrainCentralized(net, dd.Train[i], epochs, frand.New(opts.Seed^uint64(i+7)))
			res.Acc[i] = PerDeviceAccuracies(net, dd, 16)
		}
	})
	for i := 0; i < n; i++ {
		res.Degradation[i] = make([]float64, n)
		var rowSum float64
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			res.Degradation[i][j] = metrics.Degradation(res.Acc[i][i], res.Acc[i][j])
			rowSum += res.Degradation[i][j]
		}
		res.MeanOthersRow[i] = rowSum / float64(n-1)
	}
	for j := 0; j < n; j++ {
		var s float64
		for i := 0; i < n; i++ {
			if i != j {
				s += res.Degradation[i][j]
			}
		}
		res.MeanOthersCol[j] = s / float64(n-1)
	}
	return res, nil
}

// Table2 is the processed-image cross-device matrix.
func Table2(opts Options) (*CrossDeviceResult, error) {
	return CrossDevice(opts, dataset.ModeProcessed)
}

// Fig2 is the RAW-data cross-device matrix.
func Fig2(opts Options) (*CrossDeviceResult, error) {
	return CrossDevice(opts, dataset.ModeRAW)
}

// Fig3Result is the ISP stage ablation (Fig 3 / Table 3): degradation when a
// single ISP stage of the test-time pipeline is switched to Option 1 or 2.
type Fig3Result struct {
	BaselineAcc float64
	// Rows are stages; Deg[stage][opt-1] for options 1 and 2.
	Stages []string
	Names  [][2]string // algorithm names for the two options
	Deg    [][2]float64
}

// String renders the ablation table.
func (r *Fig3Result) String() string {
	t := &Table{
		Title:  fmt.Sprintf("Figure 3 — ISP stage ablation (baseline accuracy %s)", pct(r.BaselineAcc)),
		Header: []string{"stage", "option 1", "degradation", "option 2", "degradation"},
	}
	for i, s := range r.Stages {
		t.AddRow(s,
			r.Names[i][0], fmt.Sprintf("%.1f%%", r.Deg[i][0]*100),
			r.Names[i][1], fmt.Sprintf("%.1f%%", r.Deg[i][1]*100))
	}
	return t.String()
}

// Fig3 trains on Baseline-pipeline captures from all sensors and measures
// the accuracy drop when each test-time stage is switched to its Table-3
// Option 1 / Option 2 algorithm.
func Fig3(opts Options) (*Fig3Result, error) {
	trainScenes, testScenes, classes := sceneSets(opts.Seed, opts.scaled(8), opts.scaled(PerClassTest))
	profiles := device.Profiles()

	base := isp.Baseline()
	// captureAll photographs the scenes with every sensor under pipe, the
	// devices side by side on opts.Workers.
	captureAll := func(scenes []scene.Scene, pipe isp.Pipeline, salt uint64) (*dataset.Dataset, error) {
		devs := make([]*device.Profile, len(profiles))
		tags := make([]int, len(profiles))
		rngs := make([]*frand.RNG, len(profiles))
		for i, p := range profiles {
			devs[i], tags[i] = p.WithISP(pipe), i
			rngs[i] = frand.New(opts.Seed ^ salt ^ uint64(i+1)*0x9e37)
		}
		parts, err := dataset.CaptureDevices(scenes, devs, dataset.ModeProcessed, OutRes, classes, tags, rngs, opts.Workers)
		if err != nil {
			return nil, err
		}
		return dataset.Concat(parts...), nil
	}

	train, err := captureAll(trainScenes, base, 0xaaaa)
	if err != nil {
		return nil, err
	}
	baseTest, err := captureAll(testScenes, base, 0xbbbb)
	if err != nil {
		return nil, err
	}

	net := SimpleCNNBuilder(opts.Seed, classes)()
	net.SetIntraOp(opts.IntraOpBudget())
	TrainCentralized(net, train, opts.scaled(20), frand.New(opts.Seed^3))
	baseAcc := metrics.Accuracy(net, baseTest, 16)

	res := &Fig3Result{BaselineAcc: baseAcc}
	for stage := isp.StageDemosaic; stage < isp.NumStages; stage++ {
		var names [2]string
		var degs [2]float64
		for opt := 1; opt <= 2; opt++ {
			pipe, err := base.Option(stage, opt)
			if err != nil {
				return nil, err
			}
			test, err := captureAll(testScenes, pipe, 0xbbbb)
			if err != nil {
				return nil, err
			}
			acc := metrics.Accuracy(net, test, 16)
			names[opt-1] = stageOptionName(pipe, stage)
			degs[opt-1] = metrics.Degradation(baseAcc, acc)
		}
		res.Stages = append(res.Stages, stage.String())
		res.Names = append(res.Names, names)
		res.Deg = append(res.Deg, degs)
	}
	return res, nil
}

func stageOptionName(p isp.Pipeline, s isp.Stage) string {
	switch s {
	case isp.StageDemosaic:
		return p.Demosaic.String()
	case isp.StageDenoise:
		return p.Denoise.String()
	case isp.StageWB:
		return p.WB.String()
	case isp.StageGamut:
		return p.Gamut.String()
	case isp.StageTone:
		return p.Tone.String()
	default:
		return p.Compress.String()
	}
}

// loss type used across vision experiments.
var _ nn.Loss = nn.SoftmaxCrossEntropy{}
