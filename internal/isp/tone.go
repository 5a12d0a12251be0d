package isp

import "math"

// ToneAlg selects the tone transformation (Table 3 "Tone transformation").
type ToneAlg int

// Tone variants. sRGB gamma encoding is the baseline; Option 1 omits the
// stage (leaving linear data); Option 2 adds tone equalization on top of the
// gamma encode.
const (
	ToneSRGBGamma ToneAlg = iota
	ToneNone
	ToneSRGBGammaEq
)

// String implements fmt.Stringer.
func (a ToneAlg) String() string {
	switch a {
	case ToneSRGBGamma:
		return "srgb-gamma"
	case ToneNone:
		return "none"
	case ToneSRGBGammaEq:
		return "srgb-gamma+equalize"
	}
	return "tone?"
}

// SRGBEncode applies the standard piecewise sRGB opto-electronic transfer
// function to a linear value in [0,1].
func SRGBEncode(v float64) float64 {
	if v <= 0.0031308 {
		return 12.92 * v
	}
	return 1.055*math.Pow(v, 1/2.4) - 0.055
}

// toneTransform applies the curve in place.
func toneTransform(im *Image, alg ToneAlg) {
	switch alg {
	case ToneNone:
	case ToneSRGBGammaEq:
		applySRGB(im)
		equalizeTone(im, 0.5)
	default:
		applySRGB(im)
	}
}

// applySRGB encodes im in place. Its inputs are continuous linear values,
// so every sample pays one math.Pow — the floor of the develop path.
func applySRGB(im *Image) {
	for i, v := range im.Pix {
		im.Pix[i] = SRGBEncode(clamp01(v))
	}
}

// equalizeTone blends each pixel's luma toward its histogram-equalized value
// with strength `amount`, preserving chroma ratios — a simple global tone
// equalization as bundled with camera "auto contrast" modes. It works in
// place (a pixel's new value depends on the histogram and on its own old
// value only) and leaves an empty image alone.
func equalizeTone(im *Image, amount float64) {
	const bins = 256
	n := im.W * im.H
	if n == 0 {
		return
	}
	var hist [bins]int
	for i := 0; i < n; i++ {
		b := int(clamp01(im.Luma(i)) * (bins - 1))
		hist[b]++
	}
	var cdf [bins]float64
	acc := 0
	for b := 0; b < bins; b++ {
		acc += hist[b]
		cdf[b] = float64(acc) / float64(n)
	}
	for i := 0; i < n; i++ {
		l := clamp01(im.Luma(i))
		eq := cdf[int(l*(bins-1))]
		target := l + (eq-l)*amount
		if l > 1e-9 {
			scale := target / l
			for c := 0; c < 3; c++ {
				im.Pix[i*3+c] = clamp01(im.Pix[i*3+c] * scale)
			}
		} else {
			for c := 0; c < 3; c++ {
				im.Pix[i*3+c] = target
			}
		}
	}
}

// gammaTable memoises v^gamma on the 65 536 values a 16-bit sample can take.
// The JPEG decoder's output is exactly such samples, code/65535, so the
// vendor gamma that follows it needs at most one math.Pow per distinct code
// instead of one per sample. Entry 0 marks "not computed yet": no positive
// code has a zero power, and code 0 skips the table.
type gammaTable struct {
	gamma float64
	pow   [1 << 16]float64
}

// Gamma raises every sample of im to gamma, in place. Under a scratch, a
// sample that is exactly code/65535 takes the memoised math.Pow of that very
// value; any other sample, and every sample without a scratch, calls
// math.Pow directly — the result is the same bits either way.
func (s *Scratch) Gamma(im *Image, gamma float64) {
	if s == nil {
		for i, v := range im.Pix {
			im.Pix[i] = math.Pow(clamp01(v), gamma)
		}
		return
	}
	t := s.gammaTable(gamma)
	for i, v := range im.Pix {
		code := int(v*65535 + 0.5)
		if code <= 0 || code > 65535 || float64(code)/65535 != v {
			im.Pix[i] = math.Pow(clamp01(v), gamma)
			continue
		}
		p := t.pow[code]
		if p == 0 {
			p = math.Pow(v, gamma)
			t.pow[code] = p
		}
		im.Pix[i] = p
	}
}

// gammaTable returns the table of the exponent; a capture loop sees one
// exponent per device profile.
func (s *Scratch) gammaTable(gamma float64) *gammaTable {
	for _, t := range s.gammas {
		if t.gamma == gamma {
			return t
		}
	}
	t := &gammaTable{gamma: gamma}
	s.gammas = append(s.gammas, t)
	return t
}
