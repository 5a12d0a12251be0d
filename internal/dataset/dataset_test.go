package dataset

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"heteroswitch/internal/device"
	"heteroswitch/internal/frand"
	"heteroswitch/internal/isp"
	"heteroswitch/internal/scene"
	"heteroswitch/internal/tensor"
)

func synthDataset(n, classes int) *Dataset {
	d := &Dataset{NumClasses: classes}
	for i := 0; i < n; i++ {
		x := tensor.New(3, 4, 4)
		x.Fill(float32(i))
		d.Samples = append(d.Samples, Sample{X: x, Label: i % classes, Device: i % 3})
	}
	return d
}

// Split divides the dataset into a training set with the given fraction and
// a test set with the remainder (no shuffling; shuffle first if needed).
func (d *Dataset) Split(trainFrac float64) (train, test *Dataset) {
	n := int(float64(len(d.Samples)) * trainFrac)
	if n < 0 {
		n = 0
	}
	if n > len(d.Samples) {
		n = len(d.Samples)
	}
	return &Dataset{Samples: d.Samples[:n], NumClasses: d.NumClasses},
		&Dataset{Samples: d.Samples[n:], NumClasses: d.NumClasses}
}

func TestSplit(t *testing.T) {
	d := synthDataset(10, 2)
	tr, te := d.Split(0.7)
	if tr.Len() != 7 || te.Len() != 3 {
		t.Fatalf("split %d/%d", tr.Len(), te.Len())
	}
	if tr.NumClasses != 2 || te.NumClasses != 2 {
		t.Fatal("split lost class count")
	}
}

func TestShuffleKeepsMultiset(t *testing.T) {
	d := synthDataset(20, 5)
	sum := 0
	for _, s := range d.Samples {
		sum += s.Label
	}
	d = d.Subset(frand.New(3).Perm(d.Len()))
	sum2 := 0
	for _, s := range d.Samples {
		sum2 += s.Label
	}
	if sum != sum2 {
		t.Fatal("shuffle changed contents")
	}
}

func TestBatchStacksCorrectly(t *testing.T) {
	d := synthDataset(6, 3)
	x, labels := batch(d, 2, 5)
	if x.Dim(0) != 3 || x.Dim(1) != 3 || x.Dim(2) != 4 {
		t.Fatalf("batch shape %v", x.Shape())
	}
	if labels[0] != 2 || labels[1] != 0 || labels[2] != 1 {
		t.Fatalf("labels %v", labels)
	}
	// First element of second sample in batch should be fill value 3.
	if x.At(1, 0, 0, 0) != 3 {
		t.Fatalf("batch data wrong: %v", x.At(1, 0, 0, 0))
	}
}

// batch is BatchInto into fresh buffers.
func batch(d *Dataset, lo, hi int) (*tensor.Tensor, []int) {
	x := tensor.New(append([]int{hi - lo}, d.Samples[lo].X.Shape()...)...)
	labels := make([]int, hi-lo)
	d.BatchInto(x, labels, lo, hi)
	return x, labels
}

// batchMulti is BatchMultiInto into fresh buffers.
func batchMulti(d *Dataset, lo, hi int) (*tensor.Tensor, *tensor.Tensor) {
	x := tensor.New(append([]int{hi - lo}, d.Samples[lo].X.Shape()...)...)
	y := tensor.New(hi-lo, d.NumClasses)
	d.BatchMultiInto(x, y, lo, hi)
	return x, y
}

func TestBatchMulti(t *testing.T) {
	d := &Dataset{NumClasses: 3}
	for i := 0; i < 4; i++ {
		x := tensor.New(1, 2, 2)
		m := make([]float32, 3)
		m[i%3] = 1
		d.Samples = append(d.Samples, Sample{X: x, Label: -1, Multi: m})
	}
	x, y := batchMulti(d, 1, 3)
	if x.Dim(0) != 2 || y.Dim(0) != 2 || y.Dim(1) != 3 {
		t.Fatalf("shapes %v %v", x.Shape(), y.Shape())
	}
	if y.At(0, 1) != 1 || y.At(1, 2) != 1 {
		t.Fatalf("multi labels wrong: %v", y.Data())
	}
}

func TestPartitionIIDCoversAll(t *testing.T) {
	d := synthDataset(23, 4)
	shards := d.PartitionIID(5, frand.New(9))
	total := 0
	for _, s := range shards {
		total += s.Len()
		if s.Len() < 4 || s.Len() > 5 {
			t.Fatalf("unbalanced shard size %d", s.Len())
		}
	}
	if total != 23 {
		t.Fatalf("partition lost samples: %d", total)
	}
}

func TestConcat(t *testing.T) {
	a := synthDataset(3, 2)
	b := synthDataset(4, 2)
	c := Concat(a, nil, b)
	if c.Len() != 7 || c.NumClasses != 2 {
		t.Fatalf("concat %d classes %d", c.Len(), c.NumClasses)
	}
}

func TestCaptureProducesLabeledTensors(t *testing.T) {
	gen := scene.NewImageNet12(64)
	scenes := gen.RenderSet(1, frand.New(21)) // 12 scenes
	dev, err := device.ByName("S9")
	if err != nil {
		t.Fatal(err)
	}
	ds, err := Capture(scenes, dev, 7, ModeProcessed, 32, 12, frand.New(22))
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 12 {
		t.Fatalf("captured %d samples", ds.Len())
	}
	for i, s := range ds.Samples {
		if s.Label != i {
			t.Fatalf("sample %d label %d", i, s.Label)
		}
		if s.Device != 7 {
			t.Fatal("device index not propagated")
		}
		sh := s.X.Shape()
		if sh[0] != 3 || sh[1] != 32 || sh[2] != 32 {
			t.Fatalf("tensor shape %v", sh)
		}
	}
}

func TestCaptureRAWDiffersFromProcessed(t *testing.T) {
	gen := scene.NewImageNet12(64)
	scenes := gen.RenderSet(1, frand.New(31))[:2]
	dev, _ := device.ByName("G4")
	proc, err := Capture(scenes, dev, 0, ModeProcessed, 32, 12, frand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := Capture(scenes, dev, 0, ModeRAW, 32, 12, frand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if proc.Samples[0].X.AllClose(raw.Samples[0].X, 1e-4) {
		t.Fatal("RAW capture identical to processed capture")
	}
}

func TestCaptureWithPipeline(t *testing.T) {
	gen := scene.NewImageNet12(64)
	scenes := gen.RenderSet(1, frand.New(41))[:2]
	dev, _ := device.ByName("S9")
	noTone, err := isp.Baseline().Option(isp.StageTone, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, err := CaptureWithPipeline(scenes, dev, 0, isp.Baseline(), 32, 12, frand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := CaptureWithPipeline(scenes, dev, 0, noTone, 32, 12, frand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if a.Samples[0].X.AllClose(b.Samples[0].X, 1e-5) {
		t.Fatal("tone-omitted pipeline produced identical tensors")
	}
}

// refCapture is the capture loop as it was before captureGrid: the public,
// allocating device calls, one image after another.
func refCapture(t *testing.T, scenes []scene.Scene, dev *device.Profile, devIndex int,
	mode CaptureMode, outRes int, rng *frand.RNG) []Sample {
	t.Helper()
	var out []Sample
	for _, sc := range scenes {
		capture := dev.CaptureProcessed
		if mode == ModeRAW {
			capture = dev.CaptureRAW
		}
		im, err := capture(sc.Image, rng)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, Sample{X: im.Resize(outRes, outRes).ToTensor(), Label: sc.Class, Device: devIndex})
	}
	return out
}

func sameSamples(t *testing.T, what string, got, want []Sample) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d samples, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i].Label != want[i].Label || got[i].Device != want[i].Device {
			t.Fatalf("%s: sample %d tagged (%d,%d), want (%d,%d)", what, i,
				got[i].Label, got[i].Device, want[i].Label, want[i].Device)
		}
		g, w := got[i].X.Data(), want[i].X.Data()
		if len(g) != len(w) {
			t.Fatalf("%s: sample %d has %d values, want %d", what, i, len(g), len(w))
		}
		for k := range w {
			if math.Float32bits(g[k]) != math.Float32bits(w[k]) {
				t.Fatalf("%s: sample %d value %d differs", what, i, k)
			}
		}
	}
}

// Image-grain scheduling must not show in the data: at every worker count,
// CaptureDevices gives what one allocating capture loop per device gives.
// The population repeats a resolution (the shared pre-resized scenes), has
// a lone one (resized per image) and one at scene size (no resize at all),
// and more workers than devices.
func TestCaptureDevicesMatchesPerDeviceLoops(t *testing.T) {
	gen := scene.NewImageNet12(64)
	scenes := gen.RenderSet(1, frand.New(51))[:5]
	var devs []*device.Profile
	for _, name := range []string{"S9", "Pixel5", "G7", "S6"} { // 48, 64, 48, 32
		dev, err := device.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		devs = append(devs, dev)
	}
	streams := func() []*frand.RNG {
		rngs := make([]*frand.RNG, len(devs))
		for i := range rngs {
			rngs[i] = frand.New(uint64(100 + i))
		}
		return rngs
	}
	for _, mode := range []CaptureMode{ModeProcessed, ModeRAW} {
		rngs := streams()
		want := make([][]Sample, len(devs))
		for i, dev := range devs {
			want[i] = refCapture(t, scenes, dev, i, mode, 32, rngs[i])
		}
		for _, workers := range []int{0, 1, 2, 3, 8} {
			got, err := CaptureDevices(scenes, devs, mode, 32, 12, streams(), workers)
			if err != nil {
				t.Fatal(err)
			}
			for i := range devs {
				if got[i].NumClasses != 12 {
					t.Fatalf("NumClasses %d", got[i].NumClasses)
				}
				sameSamples(t, fmt.Sprintf("mode %d workers %d %s", mode, workers, devs[i].Name), got[i].Samples, want[i])
			}
		}
		// Capture is the one-device case and leaves the stream where the
		// allocating loop leaves it.
		rng, ref := frand.New(100), frand.New(100)
		one, err := Capture(scenes, devs[0], 9, mode, 32, 12, rng)
		if err != nil {
			t.Fatal(err)
		}
		sameSamples(t, "Capture", one.Samples, refCapture(t, scenes, devs[0], 9, mode, 32, ref))
		if rng.Uint64() != ref.Uint64() {
			t.Fatal("Capture consumed its stream differently")
		}
	}
}

// A develop error from any worker surfaces once, with class and device.
func TestCaptureGridPropagatesDevelopErrors(t *testing.T) {
	gen := scene.NewImageNet12(16)
	scenes := gen.RenderSet(1, frand.New(1))
	dev, err := device.ByName("S6")
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	develop := func(dev *device.Profile, raw *isp.RAW, sc *isp.Scratch) (*isp.Image, error) {
		if raw.Pix[0] >= 0 { // always
			return nil, fmt.Errorf("device %s: %w", dev.Name, boom)
		}
		return sc.ProcessRAWOnly(raw), nil
	}
	for _, workers := range []int{1, 4} {
		_, err := captureGrid(scenes, []*device.Profile{dev, dev}, 0, develop, 16, 12,
			[]*frand.RNG{frand.New(1), frand.New(2)}, workers)
		if !errors.Is(err, boom) || !strings.Contains(err.Error(), "capture class") {
			t.Fatalf("workers %d: error %v", workers, err)
		}
	}
}
