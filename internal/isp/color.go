package isp

import "math"

// WBAlg selects the white-balance algorithm (Table 3 "Color transformation").
type WBAlg int

// White balance variants. Gray-world is the baseline; Option 1 omits the
// stage; Option 2 is white-patch (max-RGB on a high percentile).
const (
	WBGrayWorld WBAlg = iota
	WBNone
	WBWhitePatch
)

// String implements fmt.Stringer.
func (a WBAlg) String() string {
	switch a {
	case WBGrayWorld:
		return "gray-world"
	case WBNone:
		return "none"
	case WBWhitePatch:
		return "white-patch"
	}
	return "wb?"
}

// whiteBalance corrects im in place.
func (s *Scratch) whiteBalance(im *Image, alg WBAlg) {
	switch alg {
	case WBNone:
	case WBWhitePatch:
		s.wbWhitePatch(im)
	default:
		wbGrayWorld(im)
	}
}

// wbGrayWorld scales each channel in place so all channel means equal their
// average (the gray-world assumption).
func wbGrayWorld(im *Image) {
	means := im.ChannelMeans()
	avg := (means[0] + means[1] + means[2]) / 3
	var gains [3]float64
	for c := 0; c < 3; c++ {
		if means[c] > 1e-9 {
			gains[c] = avg / means[c]
		} else {
			gains[c] = 1
		}
	}
	applyGains(im, gains)
}

// wbWhitePatch scales each channel in place so its 99th percentile maps to
// the overall 99th percentile (robust max-RGB). An empty image has no
// percentile and is left alone.
func (s *Scratch) wbWhitePatch(im *Image) {
	n := im.W * im.H
	if n == 0 {
		return
	}
	var highs [3]float64
	tmp := s.plane(n)
	for c := 0; c < 3; c++ {
		for i := 0; i < n; i++ {
			tmp[i] = im.Pix[i*3+c]
		}
		highs[c] = selectKth(tmp, (n*99)/100)
	}
	target := math.Max(highs[0], math.Max(highs[1], highs[2]))
	var gains [3]float64
	for c := 0; c < 3; c++ {
		if highs[c] > 1e-9 {
			gains[c] = target / highs[c]
		} else {
			gains[c] = 1
		}
	}
	applyGains(im, gains)
}

func applyGains(im *Image, g [3]float64) {
	n := im.W * im.H
	for i := 0; i < n; i++ {
		for c := 0; c < 3; c++ {
			im.Pix[i*3+c] = clamp01(im.Pix[i*3+c] * g[c])
		}
	}
}

// GamutAlg selects the gamut mapping (Table 3 row "Gamut mapping").
type GamutAlg int

// Gamut variants. sRGB is the baseline working gamut (identity for data
// already in linear sRGB); Option 1 omits the stage; Option 2 re-encodes the
// primaries as ProPhoto RGB, compressing saturated colors toward neutral.
const (
	GamutSRGB GamutAlg = iota
	GamutNone
	GamutProPhoto
)

// String implements fmt.Stringer.
func (a GamutAlg) String() string {
	switch a {
	case GamutSRGB:
		return "srgb"
	case GamutNone:
		return "none"
	case GamutProPhoto:
		return "prophoto"
	}
	return "gamut?"
}

// Linear sRGB (D65) to XYZ and its inverse; ProPhoto (D50) matrices. The
// D65/D50 white-point difference is deliberately retained: it is part of the
// rendering difference between gamut choices on real devices.
var (
	srgbToXYZ = [9]float64{
		0.4124564, 0.3575761, 0.1804375,
		0.2126729, 0.7151522, 0.0721750,
		0.0193339, 0.1191920, 0.9503041,
	}
	xyzToProPhoto = [9]float64{
		1.3459433, -0.2556075, -0.0511118,
		-0.5445989, 1.5081673, 0.0205351,
		0.0000000, 0.0000000, 1.2118128,
	}
)

// gamutMap converts im in place.
func gamutMap(im *Image, alg GamutAlg) {
	// sRGB working space and "none" are both identity here.
	if alg == GamutProPhoto {
		applyMatrix(im, im, matMul3(xyzToProPhoto, srgbToXYZ))
	}
}

func matMul3(a, b [9]float64) [9]float64 {
	var out [9]float64
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			var s float64
			for k := 0; k < 3; k++ {
				s += a[i*3+k] * b[k*3+j]
			}
			out[i*3+j] = s
		}
	}
	return out
}

// applyMatrix writes m · src, clamped to [0,1], into dst (same size; dst may
// be src).
func applyMatrix(dst, src *Image, m [9]float64) {
	n := src.W * src.H
	for i := 0; i < n; i++ {
		r := src.Pix[i*3]
		g := src.Pix[i*3+1]
		b := src.Pix[i*3+2]
		dst.Pix[i*3] = clamp01(m[0]*r + m[1]*g + m[2]*b)
		dst.Pix[i*3+1] = clamp01(m[3]*r + m[4]*g + m[5]*b)
		dst.Pix[i*3+2] = clamp01(m[6]*r + m[7]*g + m[8]*b)
	}
}

// ColorMatrix applies an arbitrary 3x3 color matrix (the sensor model's
// channel crosstalk) into scratch storage; im is only read.
func (s *Scratch) ColorMatrix(im *Image, m [9]float64) *Image {
	out := s.image(im.W, im.H)
	applyMatrix(out, im, m)
	return out
}
