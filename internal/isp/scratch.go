package isp

import (
	"bytes"
	"image"
)

// Scratch recycles the per-image intermediates of a capture loop: the
// resized scene, the RAW frame, the demosaic and denoise planes, the 8-bit
// JPEG hand-off and its byte buffer, and the vendor-gamma tables. A loop
// calls Reset once per image; every image or frame a method hands out after
// that belongs to the scratch, never aliases another one handed out since
// the same Reset, and is overwritten after the next. The only thing a loop
// keeps per image is what it copies out (Image.ToTensor).
//
// A nil *Scratch allocates every result instead, which is exactly what the
// package-level functions do: each of them is the nil-scratch form of the
// method of the same name, so the two paths share one implementation and
// one byte-for-byte result. A Scratch is not safe for concurrent use.
type Scratch struct {
	images []*Image
	raws   []*RAW
	planes []*[]float64
	nImage int
	nRAW   int
	nPlane int

	rgba   *image.RGBA
	jpeg   bytes.Buffer
	gammas []*gammaTable
}

// Reset recycles everything handed out since the previous Reset (nothing,
// for a nil scratch).
func (s *Scratch) Reset() {
	if s == nil {
		return
	}
	s.nImage, s.nRAW, s.nPlane = 0, 0, 0
}

// fit returns buf resized to n samples, reallocating only to grow. The
// contents are whatever the previous image left there.
func fit(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// next hands out the pool's next header, growing the pool when a loop first
// needs that many at once.
func next[T any](pool *[]*T, used *int) *T {
	if *used == len(*pool) {
		*pool = append(*pool, new(T))
	}
	*used++
	return (*pool)[*used-1]
}

// image returns a w×h image whose samples are undefined under a scratch
// (callers write every one) and zero without.
func (s *Scratch) image(w, h int) *Image {
	if s == nil {
		return NewImage(w, h)
	}
	im := next(&s.images, &s.nImage)
	im.W, im.H, im.Pix = w, h, fit(im.Pix, w*h*3)
	return im
}

// raw is image for Bayer frames.
func (s *Scratch) raw(w, h int, p BayerPattern) *RAW {
	if s == nil {
		return NewRAW(w, h, p)
	}
	r := next(&s.raws, &s.nRAW)
	r.W, r.H, r.Pattern, r.Pix = w, h, p, fit(r.Pix, w*h)
	return r
}

// plane returns n float64s of working storage, contents undefined.
func (s *Scratch) plane(n int) []float64 {
	if s == nil {
		return make([]float64, n)
	}
	p := next(&s.planes, &s.nPlane)
	*p = fit(*p, n)
	return *p
}

// rgbaFor returns an opaque w×h 8-bit image for the JPEG encoder; callers
// overwrite every pixel, alpha included.
func (s *Scratch) rgbaFor(w, h int) *image.RGBA {
	if s == nil {
		return image.NewRGBA(image.Rect(0, 0, w, h))
	}
	if s.rgba == nil || cap(s.rgba.Pix) < w*h*4 {
		s.rgba = image.NewRGBA(image.Rect(0, 0, w, h))
	}
	s.rgba.Pix = s.rgba.Pix[:w*h*4]
	s.rgba.Stride = w * 4
	s.rgba.Rect = image.Rect(0, 0, w, h)
	return s.rgba
}
