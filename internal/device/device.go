// Package device defines the nine smartphone camera profiles of the paper's
// Table 1 (three vendors × three performance tiers, with market shares) plus
// generators for unseen and long-tail device types.
//
// A Profile is the composition of a camera.Sensor (HW) and an isp.Pipeline
// (SW) together with vendor-specific rendering preferences (tone and
// saturation tuning). Capturing the SAME latent scene through different
// profiles is precisely the paper's controlled data-collection setup: all
// remaining variation is system-induced.
package device

import (
	"fmt"

	"heteroswitch/internal/camera"
	"heteroswitch/internal/frand"
	"heteroswitch/internal/isp"
)

// Tier is a device performance class.
type Tier string

// Performance tiers from Table 1.
const (
	TierHigh Tier = "H"
	TierMid  Tier = "M"
	TierLow  Tier = "L"
)

// Vendor identifies a device maker.
type Vendor string

// Vendors from Table 1.
const (
	VendorSamsung Vendor = "Samsung"
	VendorLG      Vendor = "LG"
	VendorGoogle  Vendor = "Google"
)

// Profile is one device type: sensor hardware, ISP software, vendor
// rendering preferences, and FL participation weight.
type Profile struct {
	Name        string
	Vendor      Vendor
	Tier        Tier
	MarketShare float64 // fraction of FL population (Table 1 percentages)

	Sensor camera.Sensor
	ISP    isp.Pipeline

	// Vendor rendering tuning applied after the ISP pipeline: an extra tone
	// gamma (<1 brightens/adds contrast pop, >1 flattens) and a saturation
	// factor around Rec.601 luma. 0 or 1 leaves the ISP's image as it is.
	ToneGamma  float64
	Saturation float64
}

// String implements fmt.Stringer.
func (p *Profile) String() string {
	return fmt.Sprintf("%s(%s/%s, %.0f%%)", p.Name, p.Vendor, p.Tier, p.MarketShare*100)
}

// CaptureProcessed photographs a scene and develops it with the device's own
// ISP and vendor tuning — what the stock camera app would save.
func (p *Profile) CaptureProcessed(scene *isp.Image, rng *frand.RNG) (*isp.Image, error) {
	raw, err := p.Sensor.Capture(scene, rng)
	if err != nil {
		return nil, fmt.Errorf("device %s: %w", p.Name, err)
	}
	return p.Develop(raw, nil)
}

// Develop turns a RAW frame of the device's sensor into the image the stock
// camera app would save: the device's ISP, then its vendor tuning. It is a
// pure function of the frame, so a capture loop may develop frames
// concurrently (one scratch each) while exposing them in sequence. The
// result lives in sc (nil allocates it) until sc's next Reset.
func (p *Profile) Develop(raw *isp.RAW, sc *isp.Scratch) (*isp.Image, error) {
	im, err := sc.Process(p.ISP, raw)
	if err != nil {
		return nil, fmt.Errorf("device %s: %w", p.Name, err)
	}
	// Vendor rendering tuning, in place on the image Process handed over.
	if p.ToneGamma != 0 && p.ToneGamma != 1 {
		sc.Gamma(im, p.ToneGamma)
	}
	if p.Saturation != 0 && p.Saturation != 1 {
		applySaturation(im, p.Saturation)
	}
	return im, nil
}

// WithISP returns a copy of the device that develops with pipe and no vendor
// tuning: the device's sensor under an arbitrary ISP, which is how the
// ISP-stage ablation (§3.4) photographs.
func (p *Profile) WithISP(pipe isp.Pipeline) *Profile {
	q := *p
	q.ISP, q.ToneGamma, q.Saturation = pipe, 0, 0
	return &q
}

// CaptureRAW photographs a scene and returns the minimally-converted RAW
// rendition (bilinear demosaic only, no ISP) — the §3.3 condition.
func (p *Profile) CaptureRAW(scene *isp.Image, rng *frand.RNG) (*isp.Image, error) {
	raw, err := p.Sensor.Capture(scene, rng)
	if err != nil {
		return nil, fmt.Errorf("device %s: %w", p.Name, err)
	}
	return isp.ProcessRAWOnly(raw), nil
}

// applySaturation scales every pixel's distance from its own Rec.601 luma by
// sat, in place.
func applySaturation(im *isp.Image, sat float64) {
	n := im.W * im.H
	for i := 0; i < n; i++ {
		l := im.Luma(i)
		for c := 0; c < 3; c++ {
			v := l + sat*(im.Pix[i*3+c]-l)
			if v < 0 {
				v = 0
			} else if v > 1 {
				v = 1
			}
			im.Pix[i*3+c] = v
		}
	}
}

// tierSensor builds a sensor for the given tier with vendor spectral traits.
// Newer/higher tiers have more resolution, better color separation, and less
// noise; the vendor sets the illuminant response direction.
func tierSensor(vendor Vendor, tier Tier) camera.Sensor {
	var gains [3]float64
	switch vendor {
	case VendorSamsung: // warm-leaning sensor stack
		gains = [3]float64{1.30, 1.0, 0.72}
	case VendorLG: // cool-leaning sensor stack
		gains = [3]float64{0.72, 1.0, 1.30}
	default: // Google: near-neutral
		gains = [3]float64{1.08, 1.0, 0.92}
	}
	s := camera.Sensor{
		Pattern:         isp.RGGB,
		IlluminantGains: gains,
		BlackLevel:      0.004,
	}
	switch tier {
	case TierHigh:
		s.Resolution = 64
		s.ColorMatrix = camera.CrosstalkMatrix(0.05)
		s.ShotNoise, s.ReadNoise = 0.010, 0.004
		s.Vignetting = 0.08
		s.BitDepth = 12
	case TierMid:
		s.Resolution = 48
		s.ColorMatrix = camera.CrosstalkMatrix(0.13)
		s.ShotNoise, s.ReadNoise = 0.025, 0.012
		s.Vignetting = 0.18
		s.BitDepth = 10
	default: // TierLow
		s.Resolution = 32
		s.ColorMatrix = camera.CrosstalkMatrix(0.22)
		s.ShotNoise, s.ReadNoise = 0.050, 0.025
		s.Vignetting = 0.35
		s.BitDepth = 10
	}
	return s
}

// Profiles returns the nine Table-1 device profiles in a fixed order:
// Pixel5, Pixel2, Nexus5X, VELVET, G7, G4, S22, S9, S6 (the column order of
// the paper's Table 2).
func Profiles() []*Profile {
	mk := func(name string, vendor Vendor, tier Tier, share float64,
		pipe isp.Pipeline, toneGamma, saturation float64) *Profile {
		return &Profile{
			Name: name, Vendor: vendor, Tier: tier, MarketShare: share,
			Sensor: tierSensor(vendor, tier), ISP: pipe,
			ToneGamma: toneGamma, Saturation: saturation,
		}
	}
	base := isp.Baseline()

	// Google: computational photography — AHD demosaic, strong tone mapping,
	// nearly identical processing between Pixel generations (the paper
	// observes Pixel5/Pixel2 are each other's closest pair).
	pixel := base
	pixel.Demosaic = isp.DemosaicAHD
	pixel.Tone = isp.ToneSRGBGammaEq

	nexus := base
	nexus.Denoise = isp.DenoiseNone
	nexus.Compress = isp.CompressJPEG50

	// LG: wavelet denoising; G-series uses white-patch WB.
	velvet := base
	velvet.Demosaic = isp.DemosaicAHD
	velvet.Denoise = isp.DenoiseWavelet

	g7 := base
	g7.Denoise = isp.DenoiseWavelet
	g7.WB = isp.WBWhitePatch

	g4 := base
	g4.Demosaic = isp.DemosaicBinning
	g4.Denoise = isp.DenoiseNone
	g4.WB = isp.WBWhitePatch
	g4.Compress = isp.CompressJPEG50

	// Samsung: punchy rendering; flagship adds tone equalization, the old
	// S6 bins pixels and compresses hard.
	s22 := base
	s22.Tone = isp.ToneSRGBGammaEq

	s9 := base

	s6 := base
	s6.Demosaic = isp.DemosaicBinning
	s6.Denoise = isp.DenoiseNone
	s6.Compress = isp.CompressJPEG50

	return []*Profile{
		mk("Pixel5", VendorGoogle, TierHigh, 0.01, pixel, 0.90, 1.00),
		mk("Pixel2", VendorGoogle, TierMid, 0.03, pixel, 0.92, 1.00),
		mk("Nexus5X", VendorGoogle, TierLow, 0.04, nexus, 1.00, 0.90),
		mk("VELVET", VendorLG, TierHigh, 0.02, velvet, 1.05, 1.05),
		mk("G7", VendorLG, TierMid, 0.05, g7, 1.00, 1.00),
		mk("G4", VendorLG, TierLow, 0.08, g4, 1.00, 0.95),
		mk("S22", VendorSamsung, TierHigh, 0.12, s22, 0.88, 1.25),
		mk("S9", VendorSamsung, TierMid, 0.27, s9, 0.95, 1.15),
		mk("S6", VendorSamsung, TierLow, 0.38, s6, 1.00, 1.10),
	}
}

// ByName returns the named Table-1 profile or an error.
func ByName(name string) (*Profile, error) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("device: unknown device %q", name)
}

// MarketShares returns the participation weights of Profiles() in order.
func MarketShares(profiles []*Profile) []float64 {
	w := make([]float64, len(profiles))
	for i, p := range profiles {
		w[i] = p.MarketShare
	}
	return w
}

// DominantNames returns the dominant (most-participating) device types,
// the paper's privileged group in the fairness analysis (Fig. 4): S9 and S6.
func DominantNames() []string { return []string{"S9", "S6"} }

// Random generates a plausible random device profile — used to model the
// long tail of device types in the FLAIR-style experiment and to synthesize
// genuinely unseen devices for domain-generalization tests.
func Random(rng *frand.RNG, name string) *Profile {
	vendors := []Vendor{VendorSamsung, VendorLG, VendorGoogle}
	tiers := []Tier{TierHigh, TierMid, TierLow}
	vendor := vendors[rng.Intn(len(vendors))]
	tier := tiers[rng.Intn(len(tiers))]
	s := tierSensor(vendor, tier)
	// Perturb the tier template so each random device is unique.
	s.ColorMatrix = camera.CrosstalkMatrix(rng.Uniform(0.03, 0.20))
	for c := range s.IlluminantGains {
		s.IlluminantGains[c] *= rng.Uniform(0.9, 1.1)
	}
	s.ShotNoise *= rng.Uniform(0.6, 1.6)
	s.ReadNoise *= rng.Uniform(0.6, 1.6)
	s.Vignetting = rng.Uniform(0.02, 0.3)

	pipe := isp.Baseline()
	stageOpts := []int{rng.Intn(3), rng.Intn(3), rng.Intn(3), rng.Intn(3), rng.Intn(3), rng.Intn(3)}
	for st, opt := range stageOpts {
		var err error
		pipe, err = pipe.Option(isp.Stage(st), opt)
		if err != nil {
			// Unreachable by construction; keep the baseline stage.
			continue
		}
	}
	return &Profile{
		Name: name, Vendor: vendor, Tier: tier,
		MarketShare: 0,
		Sensor:      s,
		ISP:         pipe,
		ToneGamma:   rng.Uniform(0.85, 1.1),
		Saturation:  rng.Uniform(0.9, 1.25),
	}
}
