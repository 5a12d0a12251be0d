// Package flair builds the FLAIR-substitute workload of §6.4: a multi-label
// federated image dataset spanning a long tail of device types. FLAIR
// (Song et al., 2022) contains end-user photos from more than one thousand
// device models; here each "device type" is a randomly drawn camera+ISP
// profile (internal/device.Random) and each image is a multi-object
// composition whose per-class presence must be predicted.
package flair

import (
	"fmt"

	"heteroswitch/internal/dataset"
	"heteroswitch/internal/device"
	"heteroswitch/internal/frand"
	"heteroswitch/internal/isp"
	"heteroswitch/internal/scene"
)

// Config sizes the generated federation.
type Config struct {
	NumDeviceTypes   int // distinct device profiles (FLAIR: >1000; scaled down)
	SamplesPerDevice int // training images captured per device type
	TestPerDevice    int // held-out images per device type
	Classes          int // label-space size (12 to match the scene recipes)
	OutRes           int // final tensor resolution
	Seed             uint64
}

// DefaultConfig returns a laptop-scale configuration.
func DefaultConfig() Config {
	return Config{
		NumDeviceTypes:   24,
		SamplesPerDevice: 12,
		TestPerDevice:    6,
		Classes:          12,
		OutRes:           32,
		Seed:             1,
	}
}

// Federation is the generated multi-label federated dataset.
type Federation struct {
	Devices []*device.Profile
	// Train and Test are indexed by device type.
	Train map[int]*dataset.Dataset
	Test  map[int]*dataset.Dataset
}

// Build generates the federation. Every device type gets its own randomly
// drawn profile and its own captured multi-label images.
func Build(cfg Config) (*Federation, error) {
	if cfg.NumDeviceTypes <= 0 || cfg.SamplesPerDevice <= 0 {
		return nil, fmt.Errorf("flair: non-positive sizing: %+v", cfg)
	}
	rng := frand.New(cfg.Seed)
	gen := scene.NewImageNet12(64)
	if cfg.Classes != gen.NumClasses() {
		return nil, fmt.Errorf("flair: classes %d unsupported (scene recipes provide %d)", cfg.Classes, gen.NumClasses())
	}
	fed := &Federation{
		Train: map[int]*dataset.Dataset{},
		Test:  map[int]*dataset.Dataset{},
	}
	for d := 0; d < cfg.NumDeviceTypes; d++ {
		prof := device.Random(rng.Split(), fmt.Sprintf("flair-dev-%03d", d))
		if err := prof.Sensor.Validate(); err != nil {
			return nil, fmt.Errorf("flair: device %d: %w", d, err)
		}
		fed.Devices = append(fed.Devices, prof)
		// One capture loop per device: scene generation and sensor noise
		// share rng, so images are exposed and developed in sequence, on
		// one scratch that lives as long as the device's gamma table.
		var sc isp.Scratch
		capture := func(n int) (*dataset.Dataset, error) {
			ds := &dataset.Dataset{NumClasses: cfg.Classes}
			for i := 0; i < n; i++ {
				im, labels := gen.MultiLabelScene(rng)
				sc.Reset()
				shot, err := prof.Develop(prof.Sensor.Expose(im, rng, &sc), &sc)
				if err != nil {
					return nil, fmt.Errorf("flair: device %d: %w", d, err)
				}
				ds.Samples = append(ds.Samples, dataset.Sample{
					X:      sc.Resize(shot, cfg.OutRes, cfg.OutRes).ToTensor(),
					Label:  -1,
					Multi:  labels,
					Device: d,
				})
			}
			return ds, nil
		}
		tr, err := capture(cfg.SamplesPerDevice)
		if err != nil {
			return nil, err
		}
		te, err := capture(cfg.TestPerDevice)
		if err != nil {
			return nil, err
		}
		fed.Train[d] = tr
		fed.Test[d] = te
	}
	return fed, nil
}
