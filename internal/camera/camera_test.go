package camera

import (
	"math"
	"testing"

	"heteroswitch/internal/frand"
	"heteroswitch/internal/isp"
)

func flatScene(w, h int, r, g, b float64) *isp.Image {
	im := isp.NewImage(w, h)
	for i := 0; i < w*h; i++ {
		im.Pix[i*3] = r
		im.Pix[i*3+1] = g
		im.Pix[i*3+2] = b
	}
	return im
}

func idealSensor(res int) Sensor {
	return Sensor{
		Resolution:      res,
		Pattern:         isp.RGGB,
		ColorMatrix:     CrosstalkMatrix(0),
		IlluminantGains: [3]float64{1, 1, 1},
		BitDepth:        14,
	}
}

func TestIdealSensorIsTransparent(t *testing.T) {
	s := idealSensor(16)
	scene := flatScene(16, 16, 0.6, 0.4, 0.2)
	raw, err := s.Capture(scene, frand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	// R site should read ~0.6, G ~0.4, B ~0.2 up to quantization.
	if math.Abs(at(raw, 0, 0)-0.6) > 1e-3 || math.Abs(at(raw, 1, 0)-0.4) > 1e-3 || math.Abs(at(raw, 1, 1)-0.2) > 1e-3 {
		t.Fatalf("ideal capture wrong: %v %v %v", at(raw, 0, 0), at(raw, 1, 0), at(raw, 1, 1))
	}
}

func TestIlluminantGainsCast(t *testing.T) {
	s := idealSensor(16)
	s.IlluminantGains = [3]float64{1.3, 1.0, 0.7}
	raw, err := s.Capture(flatScene(16, 16, 0.5, 0.5, 0.5), frand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if at(raw, 0, 0) <= at(raw, 1, 0) || at(raw, 1, 0) <= at(raw, 1, 1) {
		t.Fatalf("gains not applied: R=%v G=%v B=%v", at(raw, 0, 0), at(raw, 1, 0), at(raw, 1, 1))
	}
}

func TestCrosstalkMixesChannels(t *testing.T) {
	s := idealSensor(16)
	s.ColorMatrix = CrosstalkMatrix(0.2)
	// Pure red scene: green sites should now read a nonzero signal.
	raw, err := s.Capture(flatScene(16, 16, 0.8, 0, 0), frand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if at(raw, 1, 0) < 0.1 {
		t.Fatalf("crosstalk missing: G site = %v", at(raw, 1, 0))
	}
	if at(raw, 0, 0) <= at(raw, 1, 0) {
		t.Fatal("R site should still dominate under moderate crosstalk")
	}
}

func TestCrosstalkMatrixRowsSumToOne(t *testing.T) {
	m := CrosstalkMatrix(0.13)
	for r := 0; r < 3; r++ {
		sum := m[r*3] + m[r*3+1] + m[r*3+2]
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("row %d sums to %v", r, sum)
		}
	}
}

func TestVignettingDarkensCorners(t *testing.T) {
	s := idealSensor(32)
	s.Vignetting = 0.3
	raw, err := s.Capture(flatScene(32, 32, 0.8, 0.8, 0.8), frand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	centre := at(raw, 16, 16)
	corner := at(raw, 0, 0)
	if corner >= centre*0.85 {
		t.Fatalf("corner %v not darkened vs centre %v", corner, centre)
	}
}

func TestNoiseScalesWithConfig(t *testing.T) {
	quiet := idealSensor(32)
	quiet.ReadNoise = 0.005
	loud := idealSensor(32)
	loud.ReadNoise = 0.05
	scene := flatScene(32, 32, 0.5, 0.5, 0.5)
	rawQ, err := quiet.Capture(scene, frand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	rawL, err := loud.Capture(scene, frand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if stddev(rawL.Pix) <= stddev(rawQ.Pix) {
		t.Fatalf("noisier sensor had lower spread: %v vs %v", stddev(rawL.Pix), stddev(rawQ.Pix))
	}
}

func stddev(v []float64) float64 {
	var sum, sumsq float64
	for _, x := range v {
		sum += x
		sumsq += x * x
	}
	m := sum / float64(len(v))
	return math.Sqrt(sumsq/float64(len(v)) - m*m)
}

func TestResolutionResampling(t *testing.T) {
	s := idealSensor(8)
	raw, err := s.Capture(flatScene(64, 64, 0.5, 0.5, 0.5), frand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if raw.W != 8 || raw.H != 8 {
		t.Fatalf("raw geometry %dx%d, want sensor resolution 8x8", raw.W, raw.H)
	}
}

func TestQuantization(t *testing.T) {
	s := idealSensor(8)
	s.BitDepth = 4 // 15 levels: heavy quantization
	raw, err := s.Capture(flatScene(8, 8, 0.5, 0.5, 0.5), frand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range raw.Pix {
		q := v * 15
		if math.Abs(q-math.Round(q)) > 1e-9 {
			t.Fatalf("value %v not on a 4-bit grid", v)
		}
	}
}

func TestCaptureDeterministic(t *testing.T) {
	s := idealSensor(16)
	s.ReadNoise = 0.02
	scene := flatScene(16, 16, 0.4, 0.5, 0.6)
	a, err := s.Capture(scene, frand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Capture(scene, frand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			t.Fatal("capture not deterministic under identical RNG")
		}
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []Sensor{
		{Resolution: 2, BitDepth: 10},
		{Resolution: 32, BitDepth: 2},
		{Resolution: 32, BitDepth: 10, Vignetting: 1.5},
		{Resolution: 32, BitDepth: 10, ReadNoise: -1},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("config %d should fail validation", i)
		}
	}
}

// Expose is Capture without the per-call Validate: the same frame and the
// same stream position, whether its buffers are fresh or recycled and
// whether the scene arrives at scene size or already at sensor resolution.
// The scene is only read.
func TestExposeMatchesCapture(t *testing.T) {
	s := idealSensor(12)
	s.ColorMatrix = CrosstalkMatrix(0.1)
	s.IlluminantGains = [3]float64{1.3, 1, 0.7}
	s.Vignetting, s.ShotNoise, s.ReadNoise, s.BlackLevel = 0.2, 0.03, 0.01, 0.004
	scene := isp.NewImage(20, 20)
	fill := frand.New(3)
	for i := range scene.Pix {
		scene.Pix[i] = fill.Float64()
	}
	pristine := scene.Clone()

	ref := frand.New(9)
	want, err := s.Capture(scene, ref)
	if err != nil {
		t.Fatal(err)
	}
	next := ref.Uint64() // where Capture left the stream
	var sc isp.Scratch
	sc.Mosaic(flatScene(30, 30, 1, 1, 1), isp.RGGB) // leave something in the buffers
	views := []*isp.Image{scene, scene.Resize(12, 12)}
	for _, view := range views {
		for _, scratch := range []*isp.Scratch{nil, &sc} {
			scratch.Reset()
			rng := frand.New(9)
			got := s.Expose(view, rng, scratch)
			if got.W != want.W || got.H != want.H || got.Pattern != want.Pattern {
				t.Fatalf("frame %dx%d %v", got.W, got.H, got.Pattern)
			}
			for i := range want.Pix {
				if math.Float64bits(got.Pix[i]) != math.Float64bits(want.Pix[i]) {
					t.Fatalf("sample %d differs from Capture", i)
				}
			}
			if rng.Uint64() != next {
				t.Fatal("Expose consumed the stream differently")
			}
		}
	}
	if scene.MSE(pristine) != 0 {
		t.Fatal("Expose wrote to the scene")
	}
}

// at returns the RAW sample at (x, y).
func at(raw *isp.RAW, x, y int) float64 { return raw.Pix[y*raw.W+x] }
