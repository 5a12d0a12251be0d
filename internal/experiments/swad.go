package experiments

import (
	"fmt"

	"heteroswitch/internal/core"
	"heteroswitch/internal/dataset"
	"heteroswitch/internal/frand"
	"heteroswitch/internal/metrics"
	"heteroswitch/internal/nn"
	"heteroswitch/internal/parallel"
	"heteroswitch/internal/scene"
)

// Fig7Method identifies the three training regimes compared in Fig. 7.
type Fig7Method int

// The Fig. 7 regimes.
const (
	Fig7TransformOnly Fig7Method = iota
	Fig7SWA                      // per-epoch weight averaging
	Fig7SWAD                     // per-batch weight averaging
)

// String implements fmt.Stringer.
func (m Fig7Method) String() string {
	switch m {
	case Fig7SWA:
		return "transform+SWA"
	case Fig7SWAD:
		return "transform+SWAD"
	default:
		return "transform-only"
	}
}

// Fig7Result compares robustness of the three regimes against four
// transformation families at increasing degrees.
type Fig7Result struct {
	Transforms []string
	// Deg[transform][method] = mean degradation over degrees 0.3..0.9
	// relative to the method's accuracy on the original dataset.
	Deg      [][3]float64
	CleanAcc [3]float64
}

// String renders the comparison.
func (r *Fig7Result) String() string {
	t := &Table{
		Title: fmt.Sprintf("Figure 7 — robustness of weight averaging (clean acc: plain %s, SWA %s, SWAD %s)",
			pct(r.CleanAcc[0]), pct(r.CleanAcc[1]), pct(r.CleanAcc[2])),
		Header: []string{"transform", "transform-only", "+SWA", "+SWAD"},
	}
	for i, name := range r.Transforms {
		t.AddRow(name,
			fmt.Sprintf("%.1f%%", r.Deg[i][0]*100),
			fmt.Sprintf("%.1f%%", r.Deg[i][1]*100),
			fmt.Sprintf("%.1f%%", r.Deg[i][2]*100))
	}
	return t.String()
}

// sceneDataset renders the 12-class scenes directly to tensors (Fig. 7 uses
// the original dataset, not device captures).
func sceneDataset(opts Options, perClass int, salt string) *dataset.Dataset {
	gen := scene.NewImageNet12(64)
	rng := frand.New(opts.Seed).SplitNamed(salt)
	ds := &dataset.Dataset{NumClasses: gen.NumClasses()}
	for c := 0; c < gen.NumClasses(); c++ {
		for i := 0; i < perClass; i++ {
			im := gen.Render(c, rng).Resize(opts.OutRes, opts.OutRes)
			ds.Samples = append(ds.Samples, dataset.Sample{X: im.ToTensor(), Label: c})
		}
	}
	return ds
}

// trainWithAveraging trains with per-batch random transforms (degree 0.3)
// and the selected weight-averaging regime, returning the final weights. The
// network's frozen forward gets the given intra-op budget, and batches
// recycle through the pooled dataset.BatchScratch.
func trainWithAveraging(opts Options, train *dataset.Dataset, method Fig7Method, epochs, budget int) *nn.Network {
	net := SimpleCNNBuilder(opts.Seed, train.NumClasses)()
	net.SetIntraOp(budget)
	opt := nn.NewSGD(0.05, 0.9)
	rng := frand.New(opts.Seed ^ 0xf16)
	transforms := trainTransforms(0.3)

	var avg nn.Weights
	avgCount := 0
	accumulate := func() {
		w := net.Snapshot()
		if avgCount == 0 {
			avg = w
		} else {
			avg.Lerp(float32(1.0/float64(avgCount+1)), w)
		}
		avgCount++
	}

	order := make([]int, train.Len())
	for i := range order {
		order[i] = i
	}
	// Standard SWA/SWAD protocol: average only after a warmup (the first
	// half of training), so near-initialization weights do not pollute the
	// running mean.
	warmup := epochs / 2
	const batch = 10
	bs := dataset.GetBatchScratch()
	defer dataset.PutBatchScratch(bs)
	for e := 0; e < epochs; e++ {
		rng.ShuffleInts(order)
		shuffled := train.Subset(order)
		// Fresh random transform of the whole epoch's data, as the Fig. 7
		// protocol applies random transformation during training.
		tf := transforms[rng.Intn(len(transforms))]
		aug := core.TransformDataset(shuffled, tf, rng)
		for lo := 0; lo < aug.Len(); lo += batch {
			hi := min(lo+batch, aug.Len())
			x, _, labels := bs.Next(aug, lo, hi)
			out := net.Forward(x, true)
			grad := bs.Alloc(out.Shape()...)
			nn.SoftmaxCrossEntropy{}.Eval(grad, out, nn.ClassTarget(labels))
			net.Backward(grad)
			opt.Step(net.Params())
			if method == Fig7SWAD && e >= warmup {
				accumulate()
			}
		}
		if method == Fig7SWA && e >= warmup {
			accumulate()
		}
	}
	if method != Fig7TransformOnly && avgCount > 0 {
		if err := net.LoadWeights(avg); err != nil {
			panic("experiments: averaging weights mismatch: " + err.Error())
		}
	}
	return net
}

// trainTransforms is the low-degree training augmentation pool.
func trainTransforms(degree float64) []core.TransformFunc {
	return []core.TransformFunc{
		core.AffineJitter(degree),
		core.GaussianNoise(degree),
		core.WBOnly(degree),
		core.GammaOnly(degree),
	}
}

// Fig7 runs the robustness comparison. The three regimes train side by side
// on opts.Workers, each with its own RNG and arena, so the result is
// byte-identical at every worker count.
func Fig7(opts Options) (*Fig7Result, error) {
	train := sceneDataset(opts, opts.scaled(10), "fig7-train")
	test := sceneDataset(opts, opts.scaled(5), "fig7-test")
	epochs := opts.scaled(10)

	nets := [3]*nn.Network{}
	budget := parallel.Share(opts.IntraOp, opts.Workers)
	parallel.For(opts.Workers, len(nets), 1, func(lo, hi int) {
		for m := lo; m < hi; m++ {
			nets[m] = trainWithAveraging(opts, train, Fig7Method(m), epochs, budget)
		}
	})
	res := &Fig7Result{}
	for m := 0; m < 3; m++ {
		res.CleanAcc[m] = metrics.Accuracy(nets[m], test, 16)
	}

	evalTransforms := []struct {
		name string
		mk   func(degree float64) core.TransformFunc
	}{
		{"affine", core.AffineJitter},
		{"gaussian-noise", core.GaussianNoise},
		{"white-balance", core.WBOnly},
		{"gamma", core.GammaOnly},
	}
	degrees := []float64{0.3, 0.5, 0.7, 0.9}
	for _, tf := range evalTransforms {
		var deg [3]float64
		for _, d := range degrees {
			rng := frand.New(opts.Seed ^ 0x7e57)
			perturbed := core.TransformDataset(test, tf.mk(d), rng)
			for m := 0; m < 3; m++ {
				acc := metrics.Accuracy(nets[m], perturbed, 16)
				deg[m] += metrics.Degradation(res.CleanAcc[m], acc) / float64(len(degrees))
			}
		}
		res.Transforms = append(res.Transforms, tf.name)
		res.Deg = append(res.Deg, deg)
	}
	return res, nil
}
