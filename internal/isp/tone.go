package isp

import (
	"math"
	"sync"
)

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
//
// The power is math.Pow(v, 1/2.4) without its wrapper: for an exponent in
// (0, ½) Go's pow reduces to Ldexp(Exp(y·Log(v)), 0), and the Ldexp is the
// identity on the normal results a v > 0.0031308 yields, so the two are the
// same bits (TestSRGBEncodeMatchesPow holds them to it).
func SRGBEncode(v float64) float64 {
	if v <= 0.0031308 {
		return 12.92 * v
	}
	return 1.055*math.Exp((1/2.4)*math.Log(v)) - 0.055
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

// applySRGB encodes im in place, one SRGBEncode per sample. A pipeline whose
// sRGB plane goes straight to JPEG never runs it: the hand-off reads that
// plane only as bytes, which srgb8 computes from the linear samples.
func applySRGB(im *Image) {
	for i, v := range im.Pix {
		im.Pix[i] = SRGBEncode(clamp01(v))
	}
}

// srgb8Exact is the byte the JPEG hand-off takes from an sRGB-encoded
// sample: to8(SRGBEncode(clamp01(v))).
func srgb8Exact(v float64) uint8 { return to8(SRGBEncode(clamp01(v))) }

// The sRGB byte table: srgbBuckets start indices over [0, 1), and a relative
// guard band of srgbGuard on each side of every cut.
const (
	srgbBuckets = 4096
	srgbGuard   = 0x1p-30
)

// srgbCutTable maps a linear sample to srgb8Exact's byte without the power.
// cuts[k] would be the least float64 whose byte exceeds k; the table keeps
// only the guard band [lo, hi) around each cut. Outside every band the byte
// is the number of cuts below the sample: the float error of the exact
// expression is about 1e-16 relative, so it can move a byte only for a
// sample within a few ulps of a cut, and 2^-30 is millions of ulps. Inside a
// band — where the bisection's cut could be off by such a wobble — srgb8
// evaluates the expression itself. start[b] counts the bands that lie wholly
// below b/srgbBuckets; the curve rises less than one byte per bucket, so the
// scan from there passes at most one cut (two compares).
type srgbCutTable struct {
	band  [255][2]float64
	start [srgbBuckets]uint8
}

// srgbCuts builds the table once per process (about a millisecond): each cut
// is found by bisecting float64 bit patterns — positive floats order as
// their bits — on srgb8Exact itself.
var srgbCuts = sync.OnceValue(func() *srgbCutTable {
	t := new(srgbCutTable)
	for k := range t.band {
		lo, hi := uint64(0), math.Float64bits(1) // byte(lo) <= k < byte(hi)
		for hi-lo > 1 {
			mid := lo + (hi-lo)/2
			if srgb8Exact(math.Float64frombits(mid)) > uint8(k) {
				hi = mid
			} else {
				lo = mid
			}
		}
		cut := math.Float64frombits(hi)
		t.band[k] = [2]float64{cut * (1 - srgbGuard), cut * (1 + srgbGuard)}
	}
	k := 0
	for b := range t.start {
		for k < len(t.band) && t.band[k][1] <= float64(b)/srgbBuckets {
			k++
		}
		t.start[b] = uint8(k)
	}
	return t
})

// srgb8 returns srgb8Exact(v). NaN, v <= 0, v >= 1 and a v inside a guard
// band take the exact expression; in 2·10^7 uniform samples the band
// fallback fires about twice.
func (t *srgbCutTable) srgb8(v float64) uint8 {
	if !(v > 0 && v < 1) {
		return srgb8Exact(v)
	}
	k := int(t.start[int(v*srgbBuckets)])
	for k < len(t.band) && v >= t.band[k][0] {
		if v < t.band[k][1] {
			return srgb8Exact(v)
		}
		k++
	}
	return uint8(k)
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
