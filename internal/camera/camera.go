// Package camera simulates the image-capture hardware whose variation is
// the "HW" half of system-induced data heterogeneity (paper §3.3): spectral
// response differences between sensor generations and vendors, illuminant
// response, vignetting, sensor resolution, photon shot noise, read noise,
// black level, and ADC quantization.
//
// A Sensor turns a latent linear-RGB scene into the Bayer RAW frame that
// particular piece of hardware would record. Pairing a Sensor with an
// isp.Pipeline (the "SW" half) yields a complete device camera.
package camera

import (
	"fmt"
	"math"

	"heteroswitch/internal/frand"
	"heteroswitch/internal/isp"
)

// Sensor describes one image sensor's physical characteristics.
type Sensor struct {
	// Resolution is the sensor's pixel count per side; scenes are resampled
	// to this before sampling, so lower-resolution sensors genuinely see
	// less detail.
	Resolution int
	// Pattern is the color filter array layout.
	Pattern isp.BayerPattern
	// ColorMatrix models spectral crosstalk between the color channels:
	// RAW = M · scene. Rows should roughly sum to 1.
	ColorMatrix [9]float64
	// IlluminantGains are per-channel sensitivities under the capture
	// illuminant; they create the color cast that white balance corrects.
	IlluminantGains [3]float64
	// Vignetting is the relative illumination falloff at the frame corners
	// (0 = none, 0.3 = corners 30% darker).
	Vignetting float64
	// ShotNoise scales photon shot noise: σ = ShotNoise·sqrt(signal).
	ShotNoise float64
	// ReadNoise is the signal-independent noise floor σ.
	ReadNoise float64
	// BlackLevel is the sensor pedestal added before quantization.
	BlackLevel float64
	// BitDepth is the ADC precision in bits (e.g. 10 or 12).
	BitDepth int
}

// Validate reports configuration errors.
func (s *Sensor) Validate() error {
	if s.Resolution < 4 {
		return fmt.Errorf("camera: resolution %d too small", s.Resolution)
	}
	if s.BitDepth < 4 || s.BitDepth > 16 {
		return fmt.Errorf("camera: bit depth %d out of range", s.BitDepth)
	}
	if s.ShotNoise < 0 || s.ReadNoise < 0 || s.Vignetting < 0 || s.Vignetting >= 1 {
		return fmt.Errorf("camera: negative noise or invalid vignetting")
	}
	return nil
}

// Capture exposes the sensor to a linear-RGB scene and returns the RAW
// Bayer frame it records. The rng drives the noise realization; captures of
// the same scene with different rng states model repeated shots.
func (s *Sensor) Capture(scene *isp.Image, rng *frand.RNG) (*isp.RAW, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s.Expose(scene, rng, nil), nil
}

// Expose is Capture for a capture loop: the caller has Validated the sensor
// once, and the frame and its intermediates live in sc (nil allocates them)
// until sc's next Reset. The scene is only read, so a loop may hand every
// sensor of one resolution the same pre-resized scene. The rng is consumed
// exactly as by Capture: two normal draws per RAW sample, in scan order.
func (s *Sensor) Expose(scene *isp.Image, rng *frand.RNG, sc *isp.Scratch) *isp.RAW {
	// Spectral response: channel crosstalk then illuminant gains.
	im := sc.ColorMatrix(sc.Resize(scene, s.Resolution, s.Resolution), s.ColorMatrix)
	n := im.W * im.H
	for i := 0; i < n; i++ {
		for c := 0; c < 3; c++ {
			im.Pix[i*3+c] *= s.IlluminantGains[c]
		}
	}

	// Vignetting: radial falloff, normalized so the centre is unattenuated.
	if s.Vignetting > 0 {
		cx, cy := float64(im.W-1)/2, float64(im.H-1)/2
		maxR2 := cx*cx + cy*cy
		for y := 0; y < im.H; y++ {
			for x := 0; x < im.W; x++ {
				dx, dy := float64(x)-cx, float64(y)-cy
				f := 1 - s.Vignetting*(dx*dx+dy*dy)/maxR2
				i := (y*im.W + x) * 3
				im.Pix[i] *= f
				im.Pix[i+1] *= f
				im.Pix[i+2] *= f
			}
		}
	}

	raw := sc.Mosaic(im, s.Pattern)

	// Noise, pedestal, and quantization.
	levels := float64(int(1)<<s.BitDepth - 1)
	for i, v := range raw.Pix {
		if v < 0 {
			v = 0
		}
		v += s.ShotNoise*math.Sqrt(v)*rng.NormFloat64() + s.ReadNoise*rng.NormFloat64()
		v += s.BlackLevel
		v = math.Round(v*levels) / levels
		if v < 0 {
			v = 0
		} else if v > 1 {
			v = 1
		}
		raw.Pix[i] = v
	}
	return raw
}

// CrosstalkMatrix builds a row-normalized color mixing matrix with diagonal
// weight (1-2a) and off-diagonal weight a — larger a means poorer color
// separation (older sensor generations).
func CrosstalkMatrix(a float64) [9]float64 {
	d := 1 - 2*a
	return [9]float64{
		d, a, a,
		a, d, a,
		a, a, d,
	}
}
