// Package models builds the network architectures used in the paper's
// evaluation, scaled down to run on CPU against 32x32 synthetic captures:
//
//   - TinyMobileNetV3: depthwise-separable bottlenecks with squeeze-excite
//     and hard-swish (MobileNetV3-small's defining mechanisms, §6 default).
//   - TinyShuffleNetV2: channel-split units with channel shuffle (Table 5).
//   - TinySqueezeNet: fire modules, faithful to the original's lack of
//     normalization layers (Table 5).
//   - SimpleCNN: the plain CNN of the synthetic CIFAR experiment (§6.5).
//   - ECGConvNet: the 1-D convolutional heart-rate regressor (§6.6).
//
// Every constructor is deterministic in the provided seed, so federated
// workers can build bit-identical replicas.
package models

import (
	"fmt"

	"heteroswitch/internal/frand"
	"heteroswitch/internal/nn"
	"heteroswitch/internal/vec"
)

// Builder constructs a fresh network instance. Calls must be deterministic:
// every invocation returns an identically-initialized network, so parallel
// federated workers can each own a private replica.
type Builder func() *nn.Network

// Arch identifies one of the available architectures.
type Arch string

// Supported architectures.
const (
	ArchMobileNet  Arch = "mobilenetv3-tiny"
	ArchShuffleNet Arch = "shufflenetv2-tiny"
	ArchSqueezeNet Arch = "squeezenet-tiny"
	ArchSimpleCNN  Arch = "simplecnn"
)

// BuilderFor returns a deterministic Builder for the named architecture on
// inC-channel images with the given number of classes. Unknown names, and
// fewer than one input channel or class, return an error.
func BuilderFor(arch Arch, seed uint64, inC, classes int) (Builder, error) {
	var model func(r *frand.RNG, inC, classes int) *nn.Network
	switch arch {
	case ArchMobileNet:
		model = TinyMobileNetV3
	case ArchShuffleNet:
		model = TinyShuffleNetV2
	case ArchSqueezeNet:
		model = TinySqueezeNet
	case ArchSimpleCNN:
		model = SimpleCNN
	}
	if model == nil {
		return nil, fmt.Errorf("models: unknown architecture %q", arch)
	}
	if inC < 1 || classes < 1 {
		return nil, fmt.Errorf("models: want at least 1 input channel and 1 class, have %d and %d", inC, classes)
	}
	return func() *nn.Network { return model(frand.New(seed), inC, classes) }, nil
}

// convBNAct returns conv → BN with its activation as a sub-network.
func convBNAct(r *frand.RNG, inC, outC, k, stride, pad, groups int, act vec.Act) *nn.Network {
	return nn.NewNetwork(
		nn.NewConv2D(r, inC, outC, k, stride, pad, groups),
		nn.NewBatchNorm2D(outC, act),
	)
}

// bneck builds a MobileNetV3 inverted-residual bottleneck:
// 1x1 expand → depthwise k3 → SE → 1x1 project, residual when stride 1 and
// channel-preserving.
func bneck(r *frand.RNG, inC, expC, outC, stride int, useSE bool) nn.Layer {
	layers := []nn.Layer{
		nn.NewConv2D(r, inC, expC, 1, 1, 0, 1),
		nn.NewBatchNorm2D(expC, vec.ActHardSwish),
		nn.NewDepthwiseConv2D(r, expC, 3, stride, 1),
		nn.NewBatchNorm2D(expC, vec.ActHardSwish),
	}
	if useSE {
		hidden := expC / 4
		if hidden < 2 {
			hidden = 2
		}
		layers = append(layers, nn.NewSEBlock(r, expC, hidden))
	}
	layers = append(layers,
		nn.NewConv2D(r, expC, outC, 1, 1, 0, 1),
		nn.NewBatchNorm2D(outC, vec.ActIdentity),
	)
	body := nn.NewNetwork(layers...)
	if stride == 1 && inC == outC {
		return nn.NewResidual(body, nil)
	}
	return body
}

// TinyMobileNetV3 is a scaled-down MobileNetV3-small for 32x32 inputs:
// stem s2 → three bottlenecks (one s2) → head → GAP → classifier.
func TinyMobileNetV3(r *frand.RNG, inC, classes int) *nn.Network {
	return nn.NewNetwork(
		// Stem: 32x32 → 16x16.
		nn.NewConv2D(r, inC, 8, 3, 2, 1, 1),
		nn.NewBatchNorm2D(8, vec.ActHardSwish),
		bneck(r, 8, 16, 8, 1, true),
		// 16x16 → 8x8.
		bneck(r, 8, 24, 16, 2, true),
		bneck(r, 16, 32, 16, 1, true),
		// Head.
		nn.NewConv2D(r, 16, 32, 1, 1, 0, 1),
		nn.NewBatchNorm2D(32, vec.ActHardSwish),
		nn.NewGlobalAvgPool(),
		nn.NewDense(r, 32, classes),
	)
}

// shuffleUnit is the ShuffleNetV2 basic unit: split channels, transform one
// half, concatenate, shuffle.
func shuffleUnit(r *frand.RNG, c int) nn.Layer {
	half := c / 2
	branch := nn.NewNetwork(
		convBNAct(r, half, half, 1, 1, 0, 1, vec.ActReLU),
		nn.NewDepthwiseConv2D(r, half, 3, 1, 1),
		nn.NewBatchNorm2D(half, vec.ActIdentity),
		convBNAct(r, half, half, 1, 1, 0, 1, vec.ActReLU),
	)
	return nn.NewNetwork(
		nn.NewParallel(true, nn.NewIdentity(), branch),
		nn.NewChannelShuffle(2),
	)
}

// shuffleDown is the ShuffleNetV2 spatial-downsampling unit: both branches
// see the full input; output channel count doubles to outC.
func shuffleDown(r *frand.RNG, inC, outC int) nn.Layer {
	half := outC / 2
	b1 := nn.NewNetwork(
		nn.NewDepthwiseConv2D(r, inC, 3, 2, 1),
		nn.NewBatchNorm2D(inC, vec.ActIdentity),
		convBNAct(r, inC, half, 1, 1, 0, 1, vec.ActReLU),
	)
	b2 := nn.NewNetwork(
		convBNAct(r, inC, half, 1, 1, 0, 1, vec.ActReLU),
		nn.NewDepthwiseConv2D(r, half, 3, 2, 1),
		nn.NewBatchNorm2D(half, vec.ActIdentity),
		convBNAct(r, half, half, 1, 1, 0, 1, vec.ActReLU),
	)
	return nn.NewNetwork(
		nn.NewParallel(false, b1, b2),
		nn.NewChannelShuffle(2),
	)
}

// TinyShuffleNetV2 is a scaled-down ShuffleNetV2 x0.5 for 32x32 inputs.
func TinyShuffleNetV2(r *frand.RNG, inC, classes int) *nn.Network {
	return nn.NewNetwork(
		// Stem: 32x32 → 16x16, 8 channels.
		convBNAct(r, inC, 8, 3, 2, 1, 1, vec.ActReLU),
		shuffleUnit(r, 8),
		// 16x16 → 8x8, 16 channels.
		shuffleDown(r, 8, 16),
		shuffleUnit(r, 16),
		shuffleUnit(r, 16),
		convBNAct(r, 16, 32, 1, 1, 0, 1, vec.ActReLU),
		nn.NewGlobalAvgPool(),
		nn.NewDense(r, 32, classes),
	)
}

// fire is the SqueezeNet fire module: a 1x1 squeeze feeding parallel 1x1 and
// 3x3 expansions. True to the original, it contains no normalization.
func fire(r *frand.RNG, inC, squeeze, expand int) nn.Layer {
	return nn.NewNetwork(
		nn.NewConv2D(r, inC, squeeze, 1, 1, 0, 1),
		nn.NewReLU(),
		nn.NewParallel(false,
			nn.NewNetwork(nn.NewConv2D(r, squeeze, expand, 1, 1, 0, 1), nn.NewReLU()),
			nn.NewNetwork(nn.NewConv2D(r, squeeze, expand, 3, 1, 1, 1), nn.NewReLU()),
		),
	)
}

// TinySqueezeNet is a scaled-down SqueezeNet 1.1 for 32x32 inputs. Like the
// original it has no batch normalization, which makes it markedly harder to
// train — the paper observes exactly this failure under FedAvg (Table 5).
func TinySqueezeNet(r *frand.RNG, inC, classes int) *nn.Network {
	return nn.NewNetwork(
		nn.NewConv2D(r, inC, 8, 3, 2, 1, 1), // 32 → 16
		nn.NewReLU(),
		nn.NewMaxPool2D(2, 2), // 16 → 8
		fire(r, 8, 4, 8),      // out 16
		fire(r, 16, 4, 8),     // out 16
		nn.NewMaxPool2D(2, 2), // 8 → 4
		fire(r, 16, 6, 12),    // out 24
		nn.NewConv2D(r, 24, classes, 1, 1, 0, 1),
		nn.NewGlobalAvgPool(),
	)
}

// SimpleCNN is the plain convolutional classifier used for the synthetic
// CIFAR-style experiment (§6.5): two conv/BN/ReLU stages and a linear head.
func SimpleCNN(r *frand.RNG, inC, classes int) *nn.Network {
	return nn.NewNetwork(
		convBNAct(r, inC, 8, 3, 1, 1, 1, vec.ActReLU),
		nn.NewMaxPool2D(2, 2),
		convBNAct(r, 8, 16, 3, 1, 1, 1, vec.ActReLU),
		nn.NewMaxPool2D(2, 2),
		nn.NewFlatten(),
		nn.NewDense(r, 16*8*8, classes),
	)
}

// ECGConvNet is a 1-D convolutional heart-rate regressor: the flat window of
// the given length is viewed as a [1, 1, L] image and processed by stride-2
// convolutions (height stays 1 throughout), giving a receptive field long
// enough to span a full beat period, followed by global pooling and a linear
// head. Translation invariance from the pooling matches the task: heart rate
// does not depend on beat phase.
func ECGConvNet(r *frand.RNG, length int) *nn.Network {
	return nn.NewNetwork(
		nn.NewReshape(1, 1, length),
		nn.NewConv2D(r, 1, 8, 3, 2, 1, 1), // L -> L/2
		nn.NewBatchNorm2D(8, vec.ActReLU),
		nn.NewConv2D(r, 8, 16, 3, 2, 1, 1), // L/2 -> L/4
		nn.NewBatchNorm2D(16, vec.ActReLU),
		nn.NewConv2D(r, 16, 16, 3, 2, 1, 1), // L/4 -> L/8
		nn.NewBatchNorm2D(16, vec.ActReLU),
		nn.NewConv2D(r, 16, 24, 3, 2, 1, 1), // L/8 -> L/16
		nn.NewBatchNorm2D(24, vec.ActReLU),
		nn.NewConv2D(r, 24, 24, 3, 2, 1, 1), // L/16 -> L/32
		nn.NewBatchNorm2D(24, vec.ActReLU),
		nn.NewGlobalAvgPool(),
		nn.NewDense(r, 24, 1),
	)
}

// ECGConvBuilder returns a deterministic builder for ECGConvNet.
func ECGConvBuilder(seed uint64, length int) Builder {
	return func() *nn.Network { return ECGConvNet(frand.New(seed), length) }
}
