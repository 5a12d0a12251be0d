package isp

import (
	"bytes"
	"fmt"
	"image/jpeg"
)

// CompressAlg selects the compression stage (Table 3 "Image compression").
type CompressAlg int

// Compression variants. JPEG quality 85 is the baseline; Option 1 omits the
// stage; Option 2 is JPEG quality 50.
const (
	CompressJPEG85 CompressAlg = iota
	CompressNone
	CompressJPEG50
)

// String implements fmt.Stringer.
func (a CompressAlg) String() string {
	switch a {
	case CompressJPEG85:
		return "jpeg-q85"
	case CompressNone:
		return "none"
	case CompressJPEG50:
		return "jpeg-q50"
	}
	return "compress?"
}

// quality is the JPEG quality of a compressing variant.
func (a CompressAlg) quality() int {
	if a == CompressJPEG50 {
		return 50
	}
	return 85
}

// jpegRoundtrip writes the decoded roundtrip of src into dst (same size; dst
// may be src). The encoder is handed an opaque *image.RGBA, which it reads
// byte-wise and encodes to the same stream as the equal *image.NRGBA. With
// srgb set, src is still linear and the hand-off is the sRGB tone stage too:
// each byte is srgb8 of its sample, the byte applySRGB and to8 would give.
// The float sRGB plane is never written — the decode overwrites dst anyway.
func (s *Scratch) jpegRoundtrip(dst, src *Image, quality int, srgb bool) error {
	rgba := s.rgbaFor(src.W, src.H)
	if srgb {
		src.fillSRGB8(rgba.Pix)
	} else {
		src.fill8(rgba.Pix)
	}
	buf := new(bytes.Buffer)
	if s != nil {
		buf = &s.jpeg
		buf.Reset()
	}
	if err := jpeg.Encode(buf, rgba, &jpeg.Options{Quality: quality}); err != nil {
		return fmt.Errorf("isp: jpeg encode: %w", err)
	}
	decoded, err := jpeg.Decode(buf)
	if err != nil {
		return fmt.Errorf("isp: jpeg decode: %w", err)
	}
	if b := decoded.Bounds(); b.Dx() != dst.W || b.Dy() != dst.H {
		return fmt.Errorf("isp: jpeg decode: %dx%d image from a %dx%d frame", b.Dx(), b.Dy(), dst.W, dst.H)
	}
	fromGoImage(dst, decoded)
	return nil
}
