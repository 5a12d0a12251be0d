package fl

import (
	"testing"
	"testing/quick"

	"heteroswitch/internal/frand"
	"heteroswitch/internal/nn"
	"heteroswitch/internal/tensor"
)

// Property: FedAvg aggregation of identical client weights returns those
// weights unchanged (idempotence), for any sample counts.
func TestFedAvgIdempotentProperty(t *testing.T) {
	f := func(seed uint16, n1Raw, n2Raw uint8) bool {
		r := frand.New(uint64(seed))
		w := nn.Weights{Params: []*tensor.Tensor{tensor.Randn(r, 1, 5)}}
		n1 := int(n1Raw)%20 + 1
		n2 := int(n2Raw)%20 + 1
		results := []ClientResult{
			{NumSamples: n1, Weights: w.Clone()},
			{NumSamples: n2, Weights: w.Clone()},
		}
		out := streamAggregate(FedAvg{}, w, results, 1, Default())
		return out.Params[0].AllClose(w.Params[0], 1e-5)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: every coordinate of the FedAvg aggregate lies within the
// coordinate-wise [min, max] envelope of the client weights (a convex
// combination), for arbitrary positive sample counts.
func TestFedAvgConvexityProperty(t *testing.T) {
	f := func(seed uint16, nRaw [3]uint8) bool {
		r := frand.New(uint64(seed) + 1)
		var results []ClientResult
		tensors := make([]*tensor.Tensor, 3)
		for i := 0; i < 3; i++ {
			tensors[i] = tensor.Randn(r, 1, 7)
			results = append(results, ClientResult{
				NumSamples: int(nRaw[i])%10 + 1,
				Weights:    nn.Weights{Params: []*tensor.Tensor{tensors[i]}},
			})
		}
		out := streamAggregate(FedAvg{}, results[0].Weights, results, 1, Default())
		for j := 0; j < 7; j++ {
			lo, hi := tensors[0].At(j), tensors[0].At(j)
			for i := 1; i < 3; i++ {
				v := tensors[i].At(j)
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
			v := out.Params[0].At(j)
			if v < lo-1e-5 || v > hi+1e-5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: DeviceCounts always sums to n and never produces negatives,
// for arbitrary positive share vectors.
func TestDeviceCountsProperty(t *testing.T) {
	f := func(seed uint16, nRaw uint8) bool {
		r := frand.New(uint64(seed) + 7)
		k := r.Intn(8) + 1
		shares := make([]float64, k)
		for i := range shares {
			shares[i] = r.Float64() + 0.01
		}
		n := int(nRaw)%200 + 1
		counts := DeviceCounts(shares, n)
		total := 0
		for _, c := range counts {
			if c < 0 {
				return false
			}
			total += c
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: TrainLocal performs the expected number of optimizer steps:
// epochs * ceil(n/B).
func TestTrainLocalStepCountProperty(t *testing.T) {
	f := func(nRaw, bRaw, eRaw uint8) bool {
		n := int(nRaw)%20 + 1
		b := int(bRaw)%8 + 1
		e := int(eRaw)%3 + 1
		ds := fixtureData(n, 1)[0]
		ds.Samples = ds.Samples[:n]
		net := fixtureBuilder(3)()
		cfg := Config{Rounds: 1, ClientsPerRound: 1, BatchSize: b, LocalEpochs: e, LR: 0.01, Workers: 1}
		steps := 0
		TrainLocal(net, ds, cfg, nn.SoftmaxCrossEntropy{}, frand.New(1),
			func(ps []*nn.Param) { steps++ }, nil)
		want := e * ((n + b - 1) / b)
		return steps == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
