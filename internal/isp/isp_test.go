package isp

import (
	"math"
	"testing"
	"testing/quick"

	"heteroswitch/internal/frand"
)

// testScene builds a deterministic textured color image.
func testScene(w, h int, seed uint64) *Image {
	r := frand.New(seed)
	im := NewImage(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			fx, fy := float64(x)/float64(w), float64(y)/float64(h)
			im.Set(x, y, 0, clamp01(0.5+0.4*math.Sin(7*fx)+0.05*r.NormFloat64()))
			im.Set(x, y, 1, clamp01(0.4+0.4*fy+0.05*r.NormFloat64()))
			im.Set(x, y, 2, clamp01(0.3+0.3*math.Cos(5*fy)+0.05*r.NormFloat64()))
		}
	}
	return im
}

func constantImage(w, h int, r, g, b float64) *Image {
	im := NewImage(w, h)
	for i := 0; i < w*h; i++ {
		im.Pix[i*3] = r
		im.Pix[i*3+1] = g
		im.Pix[i*3+2] = b
	}
	return im
}

func TestCFAPatterns(t *testing.T) {
	// RGGB: (0,0)=R (1,0)=G (0,1)=G (1,1)=B
	cases := []struct {
		p    BayerPattern
		want [4]int // (0,0) (1,0) (0,1) (1,1)
	}{
		{RGGB, [4]int{0, 1, 1, 2}},
		{BGGR, [4]int{2, 1, 1, 0}},
		{GRBG, [4]int{1, 0, 2, 1}},
		{GBRG, [4]int{1, 2, 0, 1}},
	}
	for _, c := range cases {
		got := [4]int{cfaColor(c.p, 0, 0), cfaColor(c.p, 1, 0), cfaColor(c.p, 0, 1), cfaColor(c.p, 1, 1)}
		if got != c.want {
			t.Errorf("%v tile = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestMosaicSamplesCorrectChannel(t *testing.T) {
	im := constantImage(4, 4, 0.9, 0.5, 0.1)
	raw := Mosaic(im, RGGB)
	if raw.At(0, 0) != 0.9 || raw.At(1, 0) != 0.5 || raw.At(1, 1) != 0.1 {
		t.Fatalf("mosaic misrouted channels: %v %v %v", raw.At(0, 0), raw.At(1, 0), raw.At(1, 1))
	}
}

func TestDemosaicConstantRecovery(t *testing.T) {
	im := constantImage(16, 16, 0.7, 0.4, 0.2)
	raw := Mosaic(im, RGGB)
	for _, alg := range []DemosaicAlg{DemosaicPPG, DemosaicBinning, DemosaicAHD} {
		got := Demosaic(raw, alg)
		if mse := got.MSE(im); mse > 1e-4 {
			t.Errorf("%v on constant image MSE = %v", alg, mse)
		}
	}
}

func TestDemosaicSmoothAccuracy(t *testing.T) {
	// Smooth gradient: all demosaicers should reconstruct with low error.
	im := NewImage(32, 32)
	for y := 0; y < 32; y++ {
		for x := 0; x < 32; x++ {
			im.Set(x, y, 0, float64(x)/64+0.2)
			im.Set(x, y, 1, float64(y)/64+0.3)
			im.Set(x, y, 2, float64(x+y)/128+0.1)
		}
	}
	raw := Mosaic(im, RGGB)
	for _, alg := range []DemosaicAlg{DemosaicPPG, DemosaicAHD} {
		if mse := Demosaic(raw, alg).MSE(im); mse > 5e-4 {
			t.Errorf("%v smooth MSE = %v", alg, mse)
		}
	}
}

func TestBinningSofterThanPPG(t *testing.T) {
	im := testScene(32, 32, 5)
	raw := Mosaic(im, RGGB)
	ppg := Demosaic(raw, DemosaicPPG).MSE(im)
	bin := Demosaic(raw, DemosaicBinning).MSE(im)
	if bin <= ppg {
		t.Errorf("binning (%v) should lose more detail than PPG (%v)", bin, ppg)
	}
}

func TestDenoiseNoneIdentity(t *testing.T) {
	im := testScene(16, 16, 7)
	got := Denoise(im, DenoiseNone)
	if got.MSE(im) != 0 {
		t.Fatal("DenoiseNone altered the image")
	}
}

func TestFBDDRemovesImpulses(t *testing.T) {
	clean := constantImage(16, 16, 0.5, 0.5, 0.5)
	noisy := clean.Clone()
	r := frand.New(11)
	for k := 0; k < 20; k++ {
		i := r.Intn(16 * 16)
		noisy.Pix[i*3+r.Intn(3)] = 1.0
	}
	den := Denoise(noisy, DenoiseFBDD)
	if den.MSE(clean) >= noisy.MSE(clean)/2 {
		t.Errorf("FBDD barely reduced impulse noise: %v -> %v", noisy.MSE(clean), den.MSE(clean))
	}
}

func TestWaveletReducesGaussianNoise(t *testing.T) {
	clean := constantImage(32, 32, 0.5, 0.5, 0.5)
	noisy := clean.Clone()
	r := frand.New(13)
	for i := range noisy.Pix {
		noisy.Pix[i] = clamp01(noisy.Pix[i] + 0.08*r.NormFloat64())
	}
	den := Denoise(noisy, DenoiseWavelet)
	if den.MSE(clean) >= noisy.MSE(clean) {
		t.Errorf("wavelet denoise increased MSE: %v -> %v", noisy.MSE(clean), den.MSE(clean))
	}
}

func TestGrayWorldNeutralizesCast(t *testing.T) {
	im := testScene(32, 32, 17)
	cast := ApplyWBGains(im, 1.4, 1.0, 0.6) // warm cast
	bal := WhiteBalance(cast, WBGrayWorld)
	m := bal.ChannelMeans()
	if math.Abs(m[0]-m[1]) > 0.02 || math.Abs(m[1]-m[2]) > 0.02 {
		t.Errorf("gray-world left unequal means: %v", m)
	}
}

func TestWhitePatchBrightensHighlights(t *testing.T) {
	im := testScene(32, 32, 19)
	cast := ApplyWBGains(im, 0.8, 1.0, 0.7)
	bal := WhiteBalance(cast, WBWhitePatch)
	// The highlight percentiles should be aligned across channels afterwards.
	mb := bal.ChannelMeans()
	mc := cast.ChannelMeans()
	if mb[0] <= mc[0] || mb[2] <= mc[2] {
		t.Errorf("white-patch failed to lift suppressed channels: %v -> %v", mc, mb)
	}
}

func TestWBNoneIdentity(t *testing.T) {
	im := testScene(8, 8, 23)
	if WhiteBalance(im, WBNone).MSE(im) != 0 {
		t.Fatal("WBNone altered the image")
	}
}

func TestGamutSRGBIdentity(t *testing.T) {
	im := testScene(8, 8, 29)
	if GamutMap(im, GamutSRGB).MSE(im) != 0 {
		t.Fatal("sRGB gamut mapping should be identity for sRGB data")
	}
}

func TestGamutProPhotoChangesColors(t *testing.T) {
	im := constantImage(4, 4, 0.8, 0.2, 0.2) // saturated red
	got := GamutMap(im, GamutProPhoto)
	if got.MSE(im) < 1e-4 {
		t.Fatal("ProPhoto mapping should change saturated colors")
	}
	// Saturated colors move more than near-neutral ones.
	gray := constantImage(4, 4, 0.5, 0.5, 0.5)
	gotGray := GamutMap(gray, GamutProPhoto)
	if gotGray.MSE(gray) >= got.MSE(im) {
		t.Errorf("neutral shifted (%v) more than saturated (%v)", gotGray.MSE(gray), got.MSE(im))
	}
}

func TestSRGBEncodeDecodeInverse(t *testing.T) {
	f := func(raw uint16) bool {
		v := float64(raw) / 65535
		return math.Abs(SRGBDecode(SRGBEncode(v))-v) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSRGBEncodeMonotonicBrightens(t *testing.T) {
	prev := -1.0
	for v := 0.0; v <= 1.0; v += 0.01 {
		e := SRGBEncode(v)
		if e < prev {
			t.Fatalf("sRGB encode not monotonic at %v", v)
		}
		prev = e
		if v > 0.01 && v < 0.99 && e <= v {
			t.Fatalf("sRGB encode should brighten midtones: f(%v)=%v", v, e)
		}
	}
}

func TestToneNoneIdentity(t *testing.T) {
	im := testScene(8, 8, 31)
	if ToneTransform(im, ToneNone).MSE(im) != 0 {
		t.Fatal("ToneNone altered the image")
	}
}

func TestToneEqualizeIncreasesContrast(t *testing.T) {
	// Low-contrast image around mid gray.
	r := frand.New(37)
	im := NewImage(32, 32)
	for i := 0; i < 32*32; i++ {
		v := 0.45 + 0.1*r.Float64()
		for c := 0; c < 3; c++ {
			im.Pix[i*3+c] = v
		}
	}
	plain := ToneTransform(im, ToneSRGBGamma)
	eq := ToneTransform(im, ToneSRGBGammaEq)
	if lumaStd(eq) <= lumaStd(plain) {
		t.Errorf("equalization did not increase contrast: %v vs %v", lumaStd(eq), lumaStd(plain))
	}
}

func lumaStd(im *Image) float64 {
	n := im.W * im.H
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		l := im.Luma(i)
		sum += l
		sumsq += l * l
	}
	mean := sum / float64(n)
	return math.Sqrt(sumsq/float64(n) - mean*mean)
}

func TestApplyGammaRoundtrip(t *testing.T) {
	im := testScene(8, 8, 41)
	im.Clamp()
	round := ApplyGamma(ApplyGamma(im, 2.0), 0.5)
	if round.MSE(im) > 1e-9 {
		t.Fatalf("gamma 2 then 0.5 should invert, MSE=%v", round.MSE(im))
	}
}

func TestJPEGQualityOrdering(t *testing.T) {
	im := testScene(32, 32, 43)
	im.Clamp()
	q85, err := Compress(im, CompressJPEG85)
	if err != nil {
		t.Fatal(err)
	}
	q50, err := Compress(im, CompressJPEG50)
	if err != nil {
		t.Fatal(err)
	}
	if q85.MSE(im) >= q50.MSE(im) {
		t.Errorf("Q85 MSE %v should beat Q50 MSE %v", q85.MSE(im), q50.MSE(im))
	}
	none, err := Compress(im, CompressNone)
	if err != nil {
		t.Fatal(err)
	}
	if none.MSE(im) != 0 {
		t.Fatal("CompressNone altered the image")
	}
}

func TestPipelineOptionTable3(t *testing.T) {
	base := Baseline()
	p, err := base.Option(StageWB, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.WB != WBNone {
		t.Fatalf("WB option 1 = %v, want none", p.WB)
	}
	if p.Demosaic != base.Demosaic || p.Tone != base.Tone {
		t.Fatal("Option modified unrelated stages")
	}
	p, err = base.Option(StageTone, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.Tone != ToneSRGBGammaEq {
		t.Fatalf("Tone option 2 = %v", p.Tone)
	}
	if _, err := base.Option(StageCompress, 3); err == nil {
		t.Fatal("expected error for option 3")
	}
	if _, err := base.Option(Stage(99), 1); err == nil {
		t.Fatal("expected error for unknown stage")
	}
}

func TestPipelineProcessEndToEnd(t *testing.T) {
	im := testScene(32, 32, 47)
	raw := Mosaic(im, RGGB)
	out, err := Baseline().Process(raw)
	if err != nil {
		t.Fatal(err)
	}
	if out.W != 32 || out.H != 32 {
		t.Fatalf("pipeline changed geometry: %dx%d", out.W, out.H)
	}
	for _, v := range out.Pix {
		if v < 0 || v > 1 {
			t.Fatalf("pipeline output out of range: %v", v)
		}
	}
	// The processed image must still correlate with the scene.
	if out.MSE(im) > 0.2 {
		t.Errorf("pipeline output implausibly far from scene: MSE %v", out.MSE(im))
	}
}

func TestProcessRAWOnlySkipsISP(t *testing.T) {
	im := testScene(16, 16, 53)
	raw := Mosaic(im, RGGB)
	rawIm := ProcessRAWOnly(raw)
	full, err := Baseline().Process(raw)
	if err != nil {
		t.Fatal(err)
	}
	if rawIm.MSE(full) < 1e-5 {
		t.Fatal("RAW-only output should differ from full ISP output")
	}
}

func TestResizeIdentityAndConstant(t *testing.T) {
	im := testScene(16, 16, 59)
	same := im.Resize(16, 16)
	if same.MSE(im) != 0 {
		t.Fatal("same-size resize not identity")
	}
	c := constantImage(16, 16, 0.3, 0.6, 0.9)
	down := c.Resize(8, 8)
	for i := 0; i < 8*8; i++ {
		if math.Abs(down.Pix[i*3]-0.3) > 1e-9 {
			t.Fatal("resize of constant image not constant")
		}
	}
}

func TestToTensorFromTensorRoundtrip(t *testing.T) {
	im := testScene(8, 8, 61)
	tt := im.ToTensor()
	if tt.Dim(0) != 3 || tt.Dim(1) != 8 || tt.Dim(2) != 8 {
		t.Fatalf("tensor shape %v", tt.Shape())
	}
	if back := FromTensor(tt); back.MSE(im) > 1e-12 {
		t.Fatal("ToTensor/FromTensor roundtrip lossy beyond float32")
	}
}

func TestPipelineDifferencesProduceHeterogeneity(t *testing.T) {
	// The core premise: the same RAW through different ISP configs yields
	// measurably different images.
	im := testScene(32, 32, 67)
	raw := Mosaic(im, RGGB)
	base, err := Baseline().Process(raw)
	if err != nil {
		t.Fatal(err)
	}
	for stage := StageDemosaic; stage < NumStages; stage++ {
		for opt := 1; opt <= 2; opt++ {
			p, err := Baseline().Option(stage, opt)
			if err != nil {
				t.Fatal(err)
			}
			got, err := p.Process(raw)
			if err != nil {
				t.Fatal(err)
			}
			if got.MSE(base) == 0 && !(stage == StageGamut && opt == 1) {
				t.Errorf("stage %v option %d produced identical output", stage, opt)
			}
		}
	}
}

func BenchmarkBaselinePipeline32(b *testing.B) {
	im := testScene(32, 32, 71)
	raw := Mosaic(im, RGGB)
	p := Baseline()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Process(raw); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDemosaicPPG64(b *testing.B) {
	im := testScene(64, 64, 73)
	raw := Mosaic(im, RGGB)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Demosaic(raw, DemosaicPPG)
	}
}

// Clone deep-copies the frame.
func (r *RAW) Clone() *RAW {
	c := &RAW{W: r.W, H: r.H, Pix: make([]float64, len(r.Pix)), Pattern: r.Pattern}
	copy(c.Pix, r.Pix)
	return c
}

// At returns the sample at (x, y).
func (r *RAW) At(x, y int) float64 { return r.Pix[y*r.W+x] }

// Set writes the sample at (x, y).
func (r *RAW) Set(x, y int, v float64) { r.Pix[y*r.W+x] = v }
