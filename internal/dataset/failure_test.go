package dataset

import (
	"strings"
	"testing"

	"heteroswitch/internal/device"
	"heteroswitch/internal/frand"
	"heteroswitch/internal/scene"
)

// Failure injection: an invalid sensor configuration must surface as an
// error from CaptureDevices (wrapped with device context), never a panic.
func TestCapturePropagatesSensorErrors(t *testing.T) {
	gen := scene.NewImageNet12(16)
	scenes := gen.RenderSet(1, frand.New(1))[:1]
	dev, err := device.ByName("S9")
	if err != nil {
		t.Fatal(err)
	}
	broken := *dev
	broken.Sensor.Resolution = 1 // fails Validate
	for _, mode := range []CaptureMode{ModeProcessed, ModeRAW} {
		_, err := CaptureDevices(scenes, []*device.Profile{dev, &broken}, mode, 16, 12, []int{0, 1},
			[]*frand.RNG{frand.New(1), frand.New(2)}, 2)
		if err == nil || !strings.Contains(err.Error(), "device S9") {
			t.Fatalf("mode %d: error %v, want the broken device's validation error", mode, err)
		}
	}
}

// A call whose tags or streams do not match its devices, or whose mode is
// unknown, is refused before anything is captured.
func TestCaptureDevicesRejectsBadArguments(t *testing.T) {
	scenes := scene.NewImageNet12(16).RenderSet(1, frand.New(1))[:1]
	dev, err := device.ByName("S9")
	if err != nil {
		t.Fatal(err)
	}
	devs, rngs := []*device.Profile{dev, dev}, []*frand.RNG{frand.New(1), frand.New(2)}
	for _, c := range []struct {
		name string
		mode CaptureMode
		tags []int
		rngs []*frand.RNG
		want string
	}{
		{"one tag", ModeProcessed, []int{0}, rngs, "2 devices, 1 tags, 2 streams"},
		{"one stream", ModeProcessed, []int{0, 1}, rngs[:1], "2 devices, 2 tags, 1 streams"},
		{"mode 2", CaptureMode(2), []int{0, 1}, rngs, "unknown mode 2"},
		{"mode -1", CaptureMode(-1), []int{0, 1}, rngs, "unknown mode -1"},
	} {
		_, err := CaptureDevices(scenes, devs, c.mode, 16, 12, c.tags, c.rngs, 1)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want %q", c.name, err, c.want)
		}
	}
}

func TestSplitBoundaries(t *testing.T) {
	d := synthDataset(4, 2)
	tr, te := d.Split(0)
	if tr.Len() != 0 || te.Len() != 4 {
		t.Fatal("Split(0) wrong")
	}
	tr, te = d.Split(1)
	if tr.Len() != 4 || te.Len() != 0 {
		t.Fatal("Split(1) wrong")
	}
	tr, te = d.Split(2.0) // over-fraction clamps
	if tr.Len() != 4 || te.Len() != 0 {
		t.Fatal("Split(>1) must clamp")
	}
}

func TestPartitionMoreShardsThanSamples(t *testing.T) {
	d := synthDataset(3, 2)
	shards := d.PartitionIID(5, frand.New(1))
	total := 0
	empty := 0
	for _, s := range shards {
		total += s.Len()
		if s.Len() == 0 {
			empty++
		}
	}
	if total != 3 || empty != 2 {
		t.Fatalf("partition of 3 into 5: total %d empty %d", total, empty)
	}
}
