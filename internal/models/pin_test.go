package models

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"heteroswitch/internal/frand"
	"heteroswitch/internal/nn"
	"heteroswitch/internal/tensor"
)

// The frozen forward's pinned bytes: fnv-64a of every math.Float32bits of the
// frozen logits of each architecture at batch 1, 3 and 16, after two SGD
// steps have moved the weights and the batch-norm running statistics away
// from their initial values (so every BN fold is a real fold). It covers the
// oracle tier end to end — stem lowering, pointwise and depthwise convs with
// their fused epilogues, squeeze-excite, residuals, pooling, dense — and a
// kernel that changes one rounding of one output moves a row.
//
// The test runs the default backend, auto, which is the oracle tier on
// every build, so one constant holds in the default build (AVX2 kernels) and
// under -tags purego (the Go loops).

// pinnedFrozen was recorded on the commit before the fused 3×3 depthwise
// kernel, the stride-2 im2col gather and the lane-parallel plane sweeps.
var pinnedFrozen = map[string]string{
	"mobilenetv3-tiny":  "3a2f48dd5164d015",
	"shufflenetv2-tiny": "e5afbb61a30d7d29",
	"squeezenet-tiny":   "9daa33a3f83aca66",
	"simplecnn":         "b653d328287820a2",
	"ecgconvnet":        "edc039f293755064",
}

// pinFrozenDigest trains net for two steps on batches from mkX and returns
// the digest of its frozen logits at batch 1, 3 and 16.
func pinFrozenDigest(t *testing.T, net *nn.Network, loss nn.Loss, mkX func(r *frand.RNG, n int) *tensor.Tensor, target func(r *frand.RNG, pred *tensor.Tensor) nn.Target) string {
	t.Helper()
	r := frand.New(41)
	opt := nn.NewSGD(0.02, 0.9)
	for step := 0; step < 2; step++ {
		out := net.Forward(mkX(r, 4), true)
		_, grad := evalGrad(loss, out, target(r, out))
		net.Backward(grad)
		opt.Step(net.Params())
	}
	h := fnv.New64a()
	for _, n := range []int{1, 3, 16} {
		for _, v := range net.Freeze().Infer(mkX(r, n)).Data() {
			b := math.Float32bits(v)
			h.Write([]byte{byte(b), byte(b >> 8), byte(b >> 16), byte(b >> 24)})
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func TestPinnedFrozenBytes(t *testing.T) {
	image := func(r *frand.RNG, n int) *tensor.Tensor { return tensor.Randn(r, 1, n, 3, 32, 32) }
	classes := func(r *frand.RNG, pred *tensor.Tensor) nn.Target {
		labels := make([]int, pred.Dim(0))
		for i := range labels {
			labels[i] = r.Intn(pred.Dim(1))
		}
		return nn.ClassTarget(labels)
	}
	got := map[string]string{}
	for _, arch := range []Arch{ArchMobileNet, ArchShuffleNet, ArchSqueezeNet, ArchSimpleCNN} {
		b, err := BuilderFor(arch, 13, 3, 12)
		if err != nil {
			t.Fatal(err)
		}
		got[string(arch)] = pinFrozenDigest(t, b(), nn.SoftmaxCrossEntropy{}, image, classes)
	}
	got["ecgconvnet"] = pinFrozenDigest(t, ECGConvBuilder(13, 128)(), nn.MSE{},
		func(r *frand.RNG, n int) *tensor.Tensor { return tensor.Randn(r, 1, n, 128) },
		func(r *frand.RNG, pred *tensor.Tensor) nn.Target {
			return nn.DenseTarget(tensor.Randn(r, 1, pred.Dim(0), 1))
		})
	for name, want := range pinnedFrozen {
		if got[name] != want {
			t.Errorf("%s: frozen logits digest %s, was pinned as %s", name, got[name], want)
		}
	}
}

// The training step's pinned bytes: fnv-64a of every math.Float32bits of the
// parameters and the batch-norm running statistics of each architecture after
// three SGD steps at batch 4. It covers every training kernel the models run —
// the conv and dense forwards and gradients, batch norm with the activation it
// carries, pooling, squeeze-excite, residuals and the loss — and one constant
// holds in the default build and under -tags purego.

// pinnedTraining was recorded on the commit before batch norm carried its
// activation.
var pinnedTraining = map[string]string{
	"mobilenetv3-tiny":  "4b797288407f8282",
	"shufflenetv2-tiny": "839e9baca3b3d2b7",
	"squeezenet-tiny":   "13e8bc40f7d69a4b",
	"simplecnn":         "613172ec684e2cb9",
	"ecgconvnet":        "5ac6aeb71b052383",
}

// pinTrainingDigest trains net for three SGD steps at batch 4 on batches from
// mkX and returns the digest of its parameters and states.
func pinTrainingDigest(t *testing.T, net *nn.Network, loss nn.Loss, mkX func(r *frand.RNG, n int) *tensor.Tensor, target func(r *frand.RNG, pred *tensor.Tensor) nn.Target) string {
	t.Helper()
	r := frand.New(43)
	opt := nn.NewSGD(0.05, 0.9)
	for step := 0; step < 3; step++ {
		out := net.Forward(mkX(r, 4), true)
		_, grad := evalGrad(loss, out, target(r, out))
		net.Backward(grad)
		opt.Step(net.Params())
	}
	h := fnv.New64a()
	for _, ts := range [][]*tensor.Tensor{paramTensors(net), net.States()} {
		for _, x := range ts {
			for _, v := range x.Data() {
				b := math.Float32bits(v)
				h.Write([]byte{byte(b), byte(b >> 8), byte(b >> 16), byte(b >> 24)})
			}
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func paramTensors(net *nn.Network) []*tensor.Tensor {
	var ts []*tensor.Tensor
	for _, p := range net.Params() {
		ts = append(ts, p.W)
	}
	return ts
}

func TestPinnedTrainingBytes(t *testing.T) {
	image := func(r *frand.RNG, n int) *tensor.Tensor { return tensor.Randn(r, 1, n, 3, 32, 32) }
	classes := func(r *frand.RNG, pred *tensor.Tensor) nn.Target {
		labels := make([]int, pred.Dim(0))
		for i := range labels {
			labels[i] = r.Intn(pred.Dim(1))
		}
		return nn.ClassTarget(labels)
	}
	got := map[string]string{}
	for _, arch := range []Arch{ArchMobileNet, ArchShuffleNet, ArchSqueezeNet, ArchSimpleCNN} {
		b, err := BuilderFor(arch, 17, 3, 12)
		if err != nil {
			t.Fatal(err)
		}
		got[string(arch)] = pinTrainingDigest(t, b(), nn.SoftmaxCrossEntropy{}, image, classes)
	}
	got["ecgconvnet"] = pinTrainingDigest(t, ECGConvBuilder(17, 128)(), nn.MSE{},
		func(r *frand.RNG, n int) *tensor.Tensor { return tensor.Randn(r, 1, n, 128) },
		func(r *frand.RNG, pred *tensor.Tensor) nn.Target {
			return nn.DenseTarget(tensor.Randn(r, 1, pred.Dim(0), 1))
		})
	for name, want := range pinnedTraining {
		if got[name] != want {
			t.Errorf("%s: trained weights digest %s, was pinned as %s", name, got[name], want)
		}
	}
}
