package isp

import (
	"image"
	"math"

	"heteroswitch/internal/tensor"
)

// The pipeline runs its stages in place on scratch storage. The tests read
// better with value-returning forms, so here they are, each a clone (or a
// nil-scratch allocation) around the one production implementation.

func WhiteBalance(im *Image, alg WBAlg) *Image {
	out := im.Clone()
	(*Scratch)(nil).whiteBalance(out, alg)
	return out
}

func ApplyWBGains(im *Image, r, g, b float64) *Image {
	out := im.Clone()
	applyGains(out, [3]float64{r, g, b})
	return out
}

func GamutMap(im *Image, alg GamutAlg) *Image {
	out := im.Clone()
	gamutMap(out, alg)
	return out
}

func ToneTransform(im *Image, alg ToneAlg) *Image {
	out := im.Clone()
	toneTransform(out, alg)
	return out
}

func ApplyGamma(im *Image, gamma float64) *Image {
	out := im.Clone()
	(*Scratch)(nil).Gamma(out, gamma)
	return out
}

func DemosaicBilinearOnly(r *RAW) *Image { return (*Scratch)(nil).demosaicBilinear(r) }

func FromGoImage(src image.Image) *Image {
	b := src.Bounds()
	im := NewImage(b.Dx(), b.Dy())
	fromGoImage(im, src)
	return im
}

// cfaColor is the channel (0=R, 1=G, 2=B) the CFA passes at pixel (x, y).
func cfaColor(p BayerPattern, x, y int) int { return cfaTile(p)[(y&1)*2+(x&1)] }

// SRGBDecode inverts SRGBEncode.
func SRGBDecode(v float64) float64 {
	if v <= 0.04045 {
		return v / 12.92
	}
	return math.Pow((v+0.055)/1.055, 2.4)
}

// FromTensor inverts Image.ToTensor.
func FromTensor(t *tensor.Tensor) *Image {
	h, w := t.Dim(1), t.Dim(2)
	im := NewImage(w, h)
	d := t.Data()
	hw := w * h
	for i := 0; i < hw; i++ {
		for c := 0; c < 3; c++ {
			im.Pix[i*3+c] = float64(d[c*hw+i])
		}
	}
	return im
}

func Demosaic(r *RAW, alg DemosaicAlg) *Image { return (*Scratch)(nil).demosaic(r, alg) }

func Denoise(im *Image, alg DenoiseAlg) *Image {
	if alg == DenoiseNone {
		return im.Clone()
	}
	return (*Scratch)(nil).denoise(im, alg)
}

func JPEGRoundtrip(im *Image, quality int) (*Image, error) {
	out := NewImage(im.W, im.H)
	if err := (*Scratch)(nil).jpegRoundtrip(out, im, quality, false); err != nil {
		return nil, err
	}
	return out, nil
}

func Compress(im *Image, alg CompressAlg) (*Image, error) {
	if alg == CompressNone {
		return im.Clone(), nil
	}
	return JPEGRoundtrip(im, alg.quality())
}
