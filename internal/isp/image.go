// Package isp implements the six-stage image signal processing pipeline the
// paper characterizes (Table 3): demosaicing, denoising, white balance,
// gamut mapping, tone transformation, and JPEG compression, each with the
// paper's Baseline / Option 1 / Option 2 algorithm variants.
//
// Images are float64 interleaved RGB with nominal range [0,1]; RAW frames
// are single-plane Bayer mosaics. Working in linear float keeps the stage
// implementations faithful to real ISP math and leaves quantization effects
// to the sensor model and the JPEG stage.
package isp

import (
	"image"
	"image/color"
	"math"

	"heteroswitch/internal/tensor"
)

// Image is an interleaved RGB float image. Pixel (x, y) channel c lives at
// Pix[(y*W+x)*3+c]. Values are nominally in [0,1] but stages may transiently
// exceed that range; Clamp restores it.
type Image struct {
	W, H int
	Pix  []float64
}

// NewImage allocates a black image.
func NewImage(w, h int) *Image {
	return &Image{W: w, H: h, Pix: make([]float64, w*h*3)}
}

// Clone deep-copies the image.
func (im *Image) Clone() *Image {
	c := &Image{W: im.W, H: im.H, Pix: make([]float64, len(im.Pix))}
	copy(c.Pix, im.Pix)
	return c
}

// At returns channel c of pixel (x, y).
func (im *Image) At(x, y, c int) float64 { return im.Pix[(y*im.W+x)*3+c] }

// Set writes channel c of pixel (x, y).
func (im *Image) Set(x, y, c int, v float64) { im.Pix[(y*im.W+x)*3+c] = v }

// Clamp limits all values into [0, 1].
func (im *Image) Clamp() {
	for i, v := range im.Pix {
		if v < 0 {
			im.Pix[i] = 0
		} else if v > 1 {
			im.Pix[i] = 1
		}
	}
}

// ChannelMeans returns the per-channel means (used by gray-world WB and by
// tests asserting color-cast behaviour); all zero for an empty image.
func (im *Image) ChannelMeans() [3]float64 {
	var sums [3]float64
	n := im.W * im.H
	if n == 0 {
		return sums
	}
	for i := 0; i < n; i++ {
		for c := 0; c < 3; c++ {
			sums[c] += im.Pix[i*3+c]
		}
	}
	for c := range sums {
		sums[c] /= float64(n)
	}
	return sums
}

// Luma returns the Rec.601 luma of pixel index i.
func (im *Image) Luma(i int) float64 {
	return 0.299*im.Pix[i*3] + 0.587*im.Pix[i*3+1] + 0.114*im.Pix[i*3+2]
}

// ToTensor converts the image to a [3, H, W] CHW tensor.
func (im *Image) ToTensor() *tensor.Tensor {
	t := tensor.New(3, im.H, im.W)
	d := t.Data()
	hw := im.W * im.H
	for i := 0; i < hw; i++ {
		for c := 0; c < 3; c++ {
			d[c*hw+i] = float32(im.Pix[i*3+c])
		}
	}
	return t
}

// ToNRGBA converts to an 8-bit standard-library image (values clamped).
func (im *Image) ToNRGBA() *image.NRGBA {
	out := image.NewNRGBA(image.Rect(0, 0, im.W, im.H))
	im.fill8(out.Pix)
	return out
}

// fill8 writes the image as opaque 8-bit RGBA quadruples, the byte layout of
// both image.NRGBA and image.RGBA at alpha 255.
func (im *Image) fill8(pix []uint8) {
	for i, n := 0, im.W*im.H; i < n; i++ {
		pix[i*4] = to8(im.Pix[i*3])
		pix[i*4+1] = to8(im.Pix[i*3+1])
		pix[i*4+2] = to8(im.Pix[i*3+2])
		pix[i*4+3] = 255
	}
}

// fillSRGB8 is fill8 of the sRGB-encoded image, read from the linear one:
// each byte is srgb8 of its sample.
func (im *Image) fillSRGB8(pix []uint8) {
	t := srgbCuts()
	for i, n := 0, im.W*im.H; i < n; i++ {
		pix[i*4] = t.srgb8(im.Pix[i*3])
		pix[i*4+1] = t.srgb8(im.Pix[i*3+1])
		pix[i*4+2] = t.srgb8(im.Pix[i*3+2])
		pix[i*4+3] = 255
	}
}

// fromGoImage fills dst, which has src's size, with src's 16-bit samples
// scaled to [0,1]. The JPEG decoder's *image.YCbCr is read plane by plane
// through the same color.YCbCr conversion its At method boxes per pixel;
// every other type takes the generic At loop.
func fromGoImage(dst *Image, src image.Image) {
	b := src.Bounds()
	ycc, _ := src.(*image.YCbCr)
	for y := 0; y < dst.H; y++ {
		row := dst.row(y)
		for x := 0; x < dst.W; x++ {
			var r, g, bl uint32
			if ycc != nil {
				yi, ci := ycc.YOffset(b.Min.X+x, b.Min.Y+y), ycc.COffset(b.Min.X+x, b.Min.Y+y)
				r, g, bl, _ = color.YCbCr{Y: ycc.Y[yi], Cb: ycc.Cb[ci], Cr: ycc.Cr[ci]}.RGBA()
			} else {
				r, g, bl, _ = src.At(b.Min.X+x, b.Min.Y+y).RGBA()
			}
			row[x*3] = float64(r) / 65535
			row[x*3+1] = float64(g) / 65535
			row[x*3+2] = float64(bl) / 65535
		}
	}
}

func to8(v float64) uint8 {
	v = math.Round(v * 255)
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v)
}

// Resize bilinearly resamples the image to (w, h), returning a new image.
func (im *Image) Resize(w, h int) *Image {
	if w == im.W && h == im.H {
		return im.Clone()
	}
	return (*Scratch)(nil).Resize(im, w, h)
}

// Resize is Image.Resize into scratch storage, except that an image already
// at (w, h) is returned as it is rather than copied.
func (s *Scratch) Resize(im *Image, w, h int) *Image {
	if w == im.W && h == im.H {
		return im
	}
	out := s.image(w, h)
	sx := float64(im.W) / float64(w)
	sy := float64(im.H) / float64(h)
	for y := 0; y < h; y++ {
		fy := (float64(y)+0.5)*sy - 0.5
		y0 := int(math.Floor(fy))
		ty := fy - float64(y0)
		y1 := y0 + 1
		r0 := im.row(clampInt(y0, 0, im.H-1))
		r1 := im.row(clampInt(y1, 0, im.H-1))
		o := out.row(y)
		for x := 0; x < w; x++ {
			fx := (float64(x)+0.5)*sx - 0.5
			x0 := int(math.Floor(fx))
			tx := fx - float64(x0)
			x1 := x0 + 1
			i0 := clampInt(x0, 0, im.W-1) * 3
			i1 := clampInt(x1, 0, im.W-1) * 3
			for c := 0; c < 3; c++ {
				v00, v10 := r0[i0+c], r0[i1+c]
				v01, v11 := r1[i0+c], r1[i1+c]
				top := v00 + (v10-v00)*tx
				bot := v01 + (v11-v01)*tx
				o[x*3+c] = top + (bot-top)*ty
			}
		}
	}
	return out
}

// row returns the interleaved samples of image row y.
func (im *Image) row(y int) []float64 { return im.Pix[y*im.W*3 : (y+1)*im.W*3] }

// MSE returns the mean squared error between two same-sized images.
func (im *Image) MSE(o *Image) float64 {
	if len(im.Pix) != len(o.Pix) {
		panic("isp: MSE size mismatch")
	}
	var s float64
	for i := range im.Pix {
		d := im.Pix[i] - o.Pix[i]
		s += d * d
	}
	return s / float64(len(im.Pix))
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
