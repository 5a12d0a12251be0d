package flair

import (
	"testing"

	"heteroswitch/internal/dataset"
)

func smallConfig() Config {
	return Config{
		NumDeviceTypes:   4,
		SamplesPerDevice: 3,
		TestPerDevice:    2,
		Classes:          12,
		OutRes:           16,
		Seed:             5,
	}
}

func TestBuildFederation(t *testing.T) {
	fed, err := Build(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(fed.Devices) != 4 {
		t.Fatalf("devices = %d", len(fed.Devices))
	}
	for d := 0; d < 4; d++ {
		tr, te := fed.Train[d], fed.Test[d]
		if tr.Len() != 3 || te.Len() != 2 {
			t.Fatalf("device %d sizes %d/%d", d, tr.Len(), te.Len())
		}
		for _, s := range tr.Samples {
			if s.Device != d {
				t.Fatal("device tag mismatch")
			}
			if len(s.Multi) != 12 {
				t.Fatalf("label vector %d", len(s.Multi))
			}
			pos := 0
			for _, l := range s.Multi {
				if l == 1 {
					pos++
				}
			}
			if pos < 2 || pos > 4 {
				t.Fatalf("positives %d", pos)
			}
			sh := s.X.Shape()
			if sh[0] != 3 || sh[1] != 16 {
				t.Fatalf("tensor shape %v", sh)
			}
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	a, err := Build(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !a.Train[0].Samples[0].X.AllClose(b.Train[0].Samples[0].X, 0) {
		t.Fatal("federation not deterministic in seed")
	}
}

func TestBuildValidation(t *testing.T) {
	cfg := smallConfig()
	cfg.NumDeviceTypes = 0
	if _, err := Build(cfg); err == nil {
		t.Fatal("zero devices should fail")
	}
	cfg = smallConfig()
	cfg.Classes = 5
	if _, err := Build(cfg); err == nil {
		t.Fatal("unsupported class count should fail")
	}
}

func TestAllTest(t *testing.T) {
	fed, err := Build(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	all := fed.AllTest()
	if all.Len() != 8 {
		t.Fatalf("AllTest length %d", all.Len())
	}
	devs := map[int]bool{}
	for _, s := range all.Samples {
		devs[s.Device] = true
	}
	if len(devs) != 4 {
		t.Fatal("AllTest lost device diversity")
	}
}

// AllTest concatenates every device's test set (device tags preserved).
func (f *Federation) AllTest() *dataset.Dataset {
	all := make([]*dataset.Dataset, 0, len(f.Test))
	for d := 0; d < len(f.Devices); d++ {
		all = append(all, f.Test[d])
	}
	return dataset.Concat(all...)
}
