package device

import (
	"math"
	"testing"

	"heteroswitch/internal/frand"
	"heteroswitch/internal/isp"
	"heteroswitch/internal/scene"
)

func TestProfilesTableOne(t *testing.T) {
	ps := Profiles()
	if len(ps) != 9 {
		t.Fatalf("want 9 devices, have %d", len(ps))
	}
	wantShare := map[string]float64{
		"S22": 0.12, "VELVET": 0.02, "Pixel5": 0.01,
		"S9": 0.27, "G7": 0.05, "Pixel2": 0.03,
		"S6": 0.38, "G4": 0.08, "Nexus5X": 0.04,
	}
	var total float64
	seen := map[Vendor]int{}
	for _, p := range ps {
		if w, ok := wantShare[p.Name]; !ok || math.Abs(w-p.MarketShare) > 1e-9 {
			t.Errorf("%s market share %v, want %v", p.Name, p.MarketShare, wantShare[p.Name])
		}
		total += p.MarketShare
		seen[p.Vendor]++
		if err := p.Sensor.Validate(); err != nil {
			t.Errorf("%s sensor invalid: %v", p.Name, err)
		}
	}
	if math.Abs(total-1.0) > 1e-9 {
		t.Errorf("market shares sum to %v, want 1", total)
	}
	for _, v := range []Vendor{VendorSamsung, VendorLG, VendorGoogle} {
		if seen[v] != 3 {
			t.Errorf("vendor %s has %d devices, want 3", v, seen[v])
		}
	}
}

func TestByName(t *testing.T) {
	p, err := ByName("S9")
	if err != nil || p.Name != "S9" {
		t.Fatalf("ByName(S9) = %v, %v", p, err)
	}
	if _, err := ByName("iPhone"); err == nil {
		t.Fatal("expected error for unknown device")
	}
}

func TestDominantDevices(t *testing.T) {
	doms := DominantNames()
	ps := Profiles()
	for _, d := range doms {
		var share float64
		for _, p := range ps {
			if p.Name == d {
				share = p.MarketShare
			}
		}
		// Dominant devices must be in the top-2 by share.
		higher := 0
		for _, p := range ps {
			if p.MarketShare > share {
				higher++
			}
		}
		if higher >= 2 {
			t.Errorf("%s is not a top-2 device by market share", d)
		}
	}
}

func TestTierOrderingHoldsForNoiseAndResolution(t *testing.T) {
	byName := map[string]*Profile{}
	for _, p := range Profiles() {
		byName[p.Name] = p
	}
	triples := [][3]string{
		{"S22", "S9", "S6"},
		{"VELVET", "G7", "G4"},
		{"Pixel5", "Pixel2", "Nexus5X"},
	}
	for _, tr := range triples {
		h, m, l := byName[tr[0]], byName[tr[1]], byName[tr[2]]
		if !(h.Sensor.Resolution > m.Sensor.Resolution && m.Sensor.Resolution > l.Sensor.Resolution) {
			t.Errorf("%v resolution ordering violated", tr)
		}
		if !(h.Sensor.ReadNoise < m.Sensor.ReadNoise && m.Sensor.ReadNoise < l.Sensor.ReadNoise) {
			t.Errorf("%v noise ordering violated", tr)
		}
	}
}

// TestCrossDeviceHeterogeneity is the package's core property: the same
// latent scene produces measurably different captures on different devices,
// and similar devices (Pixel5/Pixel2) are closer to each other than
// cross-vendor pairs (the paper's Table 2 structure).
func TestCrossDeviceHeterogeneity(t *testing.T) {
	gen := scene.NewImageNet12(64)
	sc := gen.Render(4, frand.New(3)) // ambulance: strong color signature
	byName := map[string]*isp.Image{}
	for _, p := range Profiles() {
		im, err := p.CaptureProcessed(sc, frand.New(99))
		if err != nil {
			t.Fatal(err)
		}
		byName[p.Name] = im.Resize(32, 32)
	}
	pixelGap := byName["Pixel5"].MSE(byName["Pixel2"])
	crossGap := byName["Pixel5"].MSE(byName["S6"])
	if pixelGap >= crossGap {
		t.Errorf("Pixel5↔Pixel2 gap (%v) should be smaller than Pixel5↔S6 (%v)", pixelGap, crossGap)
	}
	// And heterogeneity must exist at all.
	if crossGap < 1e-4 {
		t.Errorf("cross-vendor captures suspiciously similar: %v", crossGap)
	}
}

func TestRAWMoreHeterogeneousThanProcessed(t *testing.T) {
	// §3.3: RAW data shows MORE cross-device discrepancy than ISP-processed
	// data, because the ISP (white balance in particular) normalizes sensor
	// differences. Checked in aggregate over all device pairs and several
	// scene classes — individual pairs can cancel by coincidence.
	gen := scene.NewImageNet12(64)
	ps := Profiles()
	var rawMSE, procMSE, rawCast, procCast float64
	pairs := 0
	cast := func(im *isp.Image) [2]float64 {
		m := im.ChannelMeans()
		return [2]float64{math.Log(m[0]/m[1] + 1e-9), math.Log(m[2]/m[1] + 1e-9)}
	}
	for class := 0; class < 12; class += 4 {
		sc := gen.Render(class, frand.New(uint64(class)))
		raws := make([]*isp.Image, len(ps))
		procs := make([]*isp.Image, len(ps))
		for i, p := range ps {
			r, err := p.CaptureRAW(sc, frand.New(uint64(i*100+class)))
			if err != nil {
				t.Fatal(err)
			}
			raws[i] = r.Resize(32, 32)
			pr, err := p.CaptureProcessed(sc, frand.New(uint64(i*100+class)))
			if err != nil {
				t.Fatal(err)
			}
			procs[i] = pr.Resize(32, 32)
		}
		for i := 0; i < len(ps); i++ {
			for j := i + 1; j < len(ps); j++ {
				rawMSE += raws[i].MSE(raws[j])
				procMSE += procs[i].MSE(procs[j])
				ci, cj := cast(raws[i]), cast(raws[j])
				rawCast += math.Abs(ci[0]-cj[0]) + math.Abs(ci[1]-cj[1])
				ci, cj = cast(procs[i]), cast(procs[j])
				procCast += math.Abs(ci[0]-cj[0]) + math.Abs(ci[1]-cj[1])
				pairs++
			}
		}
	}
	if rawMSE <= procMSE {
		t.Errorf("aggregate RAW MSE gap (%v) should exceed processed (%v)", rawMSE/float64(pairs), procMSE/float64(pairs))
	}
	if rawCast <= 5*procCast {
		t.Errorf("RAW color-cast divergence (%v) should dwarf processed (%v): WB is supposed to normalize casts",
			rawCast/float64(pairs), procCast/float64(pairs))
	}
}

// WithISP is the device's sensor under another pipeline and no vendor
// tuning: it develops exactly what the sensor's capture and that pipeline
// alone give, switching one stage moves the image, and the profile it
// copies keeps its own ISP and tuning.
func TestWithISPDevelopsThePipelineAlone(t *testing.T) {
	gen := scene.NewImageNet12(64)
	sc := gen.Render(7, frand.New(7))
	p, _ := ByName("S9")
	noWB, err := isp.Baseline().Option(isp.StageWB, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.WithISP(isp.Baseline()).CaptureProcessed(sc, frand.New(11))
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.WithISP(noWB).CaptureProcessed(sc, frand.New(11))
	if err != nil {
		t.Fatal(err)
	}
	if a.MSE(b) < 1e-6 {
		t.Error("omitting white balance changed nothing")
	}
	raw, err := p.Sensor.Capture(sc, frand.New(11))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := noWB.Process(raw)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.Pix {
		if math.Float64bits(b.Pix[i]) != math.Float64bits(ref.Pix[i]) {
			t.Fatalf("sample %d: %v, the pipeline alone gives %v", i, b.Pix[i], ref.Pix[i])
		}
	}
	if p.ISP != isp.Baseline() || p.ToneGamma != 0.95 || p.Saturation != 1.15 {
		t.Fatalf("WithISP changed the profile it copies: %+v", p)
	}
}

func TestRandomProfilesAreDiverseAndValid(t *testing.T) {
	rng := frand.New(13)
	names := map[string]bool{}
	var lastGamma float64
	distinct := false
	for i := 0; i < 20; i++ {
		p := Random(rng, "rand")
		if err := p.Sensor.Validate(); err != nil {
			t.Fatalf("random profile %d invalid: %v", i, err)
		}
		names[string(p.Vendor)] = true
		if i > 0 && p.ToneGamma != lastGamma {
			distinct = true
		}
		lastGamma = p.ToneGamma
	}
	if !distinct {
		t.Error("random profiles are identical")
	}
}

func TestVendorTuningApplied(t *testing.T) {
	gen := scene.NewImageNet12(64)
	sc := gen.Render(2, frand.New(17))
	s22, _ := ByName("S22")
	neutral := *s22
	neutral.ToneGamma = 1
	neutral.Saturation = 1
	a, err := s22.CaptureProcessed(sc, frand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := neutral.CaptureProcessed(sc, frand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if a.MSE(b) < 1e-6 {
		t.Error("vendor tuning has no effect")
	}
}

// One scratch serves every profile in turn (three sensor resolutions, five
// gamma tables): exposing and developing through it gives the bits of the
// allocating CaptureProcessed, and the shared scene is never written.
func TestScratchCaptureMatchesCaptureProcessed(t *testing.T) {
	gen := scene.NewImageNet12(64)
	scenes := []*isp.Image{gen.Render(2, frand.New(17)), gen.Render(7, frand.New(18))}
	pristine := []*isp.Image{scenes[0].Clone(), scenes[1].Clone()}
	var sc isp.Scratch
	for rep := 0; rep < 2; rep++ {
		for i, p := range Profiles() {
			scn := scenes[(i+rep)%2]
			want, err := p.CaptureProcessed(scn, frand.New(uint64(i)))
			if err != nil {
				t.Fatal(err)
			}
			sc.Reset()
			got, err := p.Develop(p.Sensor.Expose(scn, frand.New(uint64(i)), &sc), &sc)
			if err != nil {
				t.Fatal(err)
			}
			for k := range want.Pix {
				if math.Float64bits(got.Pix[k]) != math.Float64bits(want.Pix[k]) {
					t.Fatalf("%s: sample %d differs between the scratch and allocating paths", p.Name, k)
				}
			}
		}
	}
	for i := range scenes {
		if scenes[i].MSE(pristine[i]) != 0 {
			t.Fatal("capture wrote to the shared scene")
		}
	}
}

// In steady state a capture on a scratch allocates nothing of its own: with
// the JPEG stage off the count is exactly zero, so a stage that goes back to
// cloning its input fails here; with it on, what remains is the stdlib
// codec's per-call state (encoder buffer, decoder tables, YCbCr planes).
func TestScratchCaptureSteadyStateAllocs(t *testing.T) {
	gen := scene.NewImageNet12(64)
	scn := gen.Render(2, frand.New(17))
	for _, p := range Profiles() {
		for _, jpeg := range []bool{false, true} {
			q := *p
			limit := 16.0
			if !jpeg {
				q.ISP.Compress = isp.CompressNone
				limit = 0
			}
			rng := frand.New(1)
			var sc isp.Scratch
			allocs := testing.AllocsPerRun(10, func() {
				sc.Reset()
				im, err := q.Develop(q.Sensor.Expose(scn, rng, &sc), &sc)
				if err != nil {
					t.Fatal(err)
				}
				sc.Resize(im, 32, 32)
			})
			if allocs > limit {
				t.Errorf("%s (jpeg %v): %v allocations per capture, want at most %v", p.Name, jpeg, allocs, limit)
			}
		}
	}
}

// BenchmarkSensorCapture times one exposure (resize, crosstalk, gains,
// vignetting, mosaic, noise, quantization) per sensor tier, on the scratch
// path the capture loops run.
func BenchmarkSensorCapture(b *testing.B) {
	scn := scene.NewImageNet12(64).Render(4, frand.New(42))
	for _, name := range []string{"S22", "S9", "S6"} {
		p, err := ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(string(p.Tier), func(b *testing.B) {
			rng := frand.New(1)
			var sc isp.Scratch
			b.ReportAllocs()
			for b.Loop() {
				sc.Reset()
				p.Sensor.Expose(scn, rng, &sc)
			}
		})
	}
}
