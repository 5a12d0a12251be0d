// Package core implements HeteroSwitch, the paper's contribution (§5): a
// selective generalization technique that measures each client's bias via a
// loss comparison against an exponential moving average (Switch 1), applies
// random ISP transformations (white balance, eq. 2; gamma, eq. 3) to biased
// clients' data, maintains a per-batch stochastic weight average (SWAD)
// during local training, and returns the averaged weights only when the
// client's training loss still beats the EMA (Switch 2).
package core

import (
	"math"

	"heteroswitch/internal/dataset"
	"heteroswitch/internal/frand"
	"heteroswitch/internal/tensor"
)

// TransformFunc perturbs one sample tensor in place, using rng for its
// randomness. Implementations must tolerate any tensor shape they are
// registered for.
type TransformFunc func(x *tensor.Tensor, rng *frand.RNG)

// RandomWBGamma returns the paper's ISP transformation (eqs. 2 and 3): each
// image gets per-channel gains r_c ~ U(1-wbDeg, 1+wbDeg) and a gamma
// exponent γ ~ U(1-gammaDeg, 1+gammaDeg), floored at 0.05. Inputs are
// assumed CHW in [0,1]. The appendix's tuned degrees are wbDeg=0.001,
// gammaDeg=0.9.
//
// The c gains are drawn first, then γ; then one pass per channel (powSweep)
// takes each element through the float32 gain, the clamp to [0, 1] and the
// power. Every output is exactly float32(math.Pow(float64(v), γ)) of the
// gained, clamped v: powFast computes the power without math.Pow, which is
// called only where powFast cannot prove those bits — about one element in a
// thousand, NaNs, −0, subnormals, results near float32's smallest normal,
// and every element when γ > 2.
func RandomWBGamma(wbDeg, gammaDeg float64) TransformFunc {
	return func(x *tensor.Tensor, rng *frand.RNG) {
		if x.NDim() != 3 {
			return
		}
		c, hw := x.Dim(0), x.Dim(1)*x.Dim(2)
		var buf [4]float32
		gains := buf[:0]
		for range c {
			gains = append(gains, float32(rng.Uniform(1-wbDeg, 1+wbDeg)))
		}
		gamma := drawGamma(gammaDeg, rng)
		d := x.Data()
		for ch, gain := range gains {
			powSweep(d[ch*hw:(ch+1)*hw], gain, gamma)
		}
	}
}

// powSweep replaces each element v of d with
// float32(math.Pow(float64(clamp01(v·gain)), γ)), bit for bit. A gain of 1
// is no gain: v·1 is v for every non-NaN v, and every NaN leaves as
// math.Pow's NaN.
func powSweep(d []float32, gain float32, gamma float64) {
	for i, v := range d {
		v = clamp01(v * gain)
		f, ok := powFast(v, gamma)
		if !ok {
			f = math.Pow(float64(v), gamma)
		}
		d[i] = float32(f)
	}
}

// drawGamma draws eq. 3's exponent γ ~ U(1-degree, 1+degree), floored at
// 0.05 so the power stays a brightness curve.
func drawGamma(degree float64, rng *frand.RNG) float64 {
	gamma := rng.Uniform(1-degree, 1+degree)
	if gamma < 0.05 {
		gamma = 0.05
	}
	return gamma
}

// clamp01 clamps v to [0, 1]; NaN passes through.
func clamp01(v float32) float32 {
	if v < 0 {
		return 0
	} else if v > 1 {
		return 1
	}
	return v
}

// RandomGaussianFilter returns the 1-D signal transformation used for the
// ECG experiment (§6.6): the flattened signal is convolved with a Gaussian
// kernel whose σ is drawn uniformly from [minSigma, maxSigma] (in samples).
func RandomGaussianFilter(minSigma, maxSigma float64) TransformFunc {
	return func(x *tensor.Tensor, rng *frand.RNG) {
		sigma := rng.Uniform(minSigma, maxSigma)
		if sigma <= 0 {
			return
		}
		d := x.Data()
		smoothed := gaussianSmooth(d, sigma)
		copy(d, smoothed)
	}
}

// gaussianSmooth convolves a signal with a truncated (±3σ) Gaussian kernel,
// renormalizing at the borders.
func gaussianSmooth(sig []float32, sigma float64) []float32 {
	radius := int(3*sigma + 0.5)
	if radius < 1 {
		radius = 1
	}
	kernel := make([]float64, 2*radius+1)
	var ksum float64
	for i := range kernel {
		d := float64(i - radius)
		kernel[i] = math.Exp(-d * d / (2 * sigma * sigma))
		ksum += kernel[i]
	}
	for i := range kernel {
		kernel[i] /= ksum
	}
	out := make([]float32, len(sig))
	for i := range sig {
		var s, wsum float64
		for k, w := range kernel {
			j := i + k - radius
			if j < 0 || j >= len(sig) {
				continue
			}
			s += w * float64(sig[j])
			wsum += w
		}
		if wsum > 0 {
			out[i] = float32(s / wsum)
		}
	}
	return out
}

// TransformDataset returns a copy of ds whose sample tensors have been
// independently perturbed by tf. Labels and device tags are preserved; the
// original dataset is untouched.
func TransformDataset(ds *dataset.Dataset, tf TransformFunc, rng *frand.RNG) *dataset.Dataset {
	out := &dataset.Dataset{NumClasses: ds.NumClasses, Samples: make([]dataset.Sample, len(ds.Samples))}
	for i, s := range ds.Samples {
		x := s.X.Clone()
		tf(x, rng)
		out.Samples[i] = dataset.Sample{X: x, Label: s.Label, Multi: s.Multi, Device: s.Device}
	}
	return out
}

// AffineJitter is a geometric augmentation (small rotation+shift via nearest
// resampling) used by the Fig. 7 robustness comparison. degree scales the
// maximum rotation (radians ≈ degree/2) and shift (fraction of size).
func AffineJitter(degree float64) TransformFunc {
	return func(x *tensor.Tensor, rng *frand.RNG) {
		if x.NDim() != 3 {
			return
		}
		c, h, w := x.Dim(0), x.Dim(1), x.Dim(2)
		angle := rng.Uniform(-degree/2, degree/2)
		dx := rng.Uniform(-degree/4, degree/4) * float64(w)
		dy := rng.Uniform(-degree/4, degree/4) * float64(h)
		sin, cos := math.Sin(angle), math.Cos(angle)
		cx, cy := float64(w)/2, float64(h)/2
		src := x.Clone().Data()
		d := x.Data()
		for ch := 0; ch < c; ch++ {
			for y := 0; y < h; y++ {
				for xx := 0; xx < w; xx++ {
					fx := float64(xx) - cx
					fy := float64(y) - cy
					sx := int(math.Round(cos*fx + sin*fy + cx - dx))
					sy := int(math.Round(-sin*fx + cos*fy + cy - dy))
					var v float32
					if sx >= 0 && sx < w && sy >= 0 && sy < h {
						v = src[(ch*h+sy)*w+sx]
					}
					d[(ch*h+y)*w+xx] = v
				}
			}
		}
	}
}

// GaussianNoise adds N(0, degree·0.1) pixel noise (Fig. 7 robustness axis).
func GaussianNoise(degree float64) TransformFunc {
	std := degree * 0.1
	return func(x *tensor.Tensor, rng *frand.RNG) {
		d := x.Data()
		for i := range d {
			v := float64(d[i]) + std*rng.NormFloat64()
			if v < 0 {
				v = 0
			} else if v > 1 {
				v = 1
			}
			d[i] = float32(v)
		}
	}
}

// WBOnly returns just the eq. 2 white-balance perturbation at the given
// degree (Fig. 7's "WB" axis).
func WBOnly(degree float64) TransformFunc {
	return func(x *tensor.Tensor, rng *frand.RNG) {
		if x.NDim() != 3 {
			return
		}
		c, hw := x.Dim(0), x.Dim(1)*x.Dim(2)
		d := x.Data()
		for ch := 0; ch < c; ch++ {
			gain := float32(rng.Uniform(1-degree, 1+degree))
			seg := d[ch*hw : (ch+1)*hw]
			for i := range seg {
				v := seg[i] * gain
				if v < 0 {
					v = 0
				} else if v > 1 {
					v = 1
				}
				seg[i] = v
			}
		}
	}
}

// GammaOnly returns just the eq. 3 gamma perturbation (Fig. 7's "Gamma"):
// γ ~ U(1-degree, 1+degree), floored at 0.05, applied to every element
// clamped to [0, 1], on any shape, by RandomWBGamma's sweep with no gain. Its
// outputs carry RandomWBGamma's contract: float32(math.Pow(float64(v), γ)),
// bit for bit, with math.Pow called only where powFast cannot prove them.
func GammaOnly(degree float64) TransformFunc {
	return func(x *tensor.Tensor, rng *frand.RNG) {
		powSweep(x.Data(), 1, drawGamma(degree, rng))
	}
}
