package isp

import "fmt"

// BayerPattern identifies the color filter array layout. Only RGGB is used
// by the device profiles, but the demosaicers are pattern-generic.
type BayerPattern int

// Supported CFA patterns.
const (
	RGGB BayerPattern = iota
	BGGR
	GRBG
	GBRG
)

// String implements fmt.Stringer.
func (p BayerPattern) String() string {
	switch p {
	case RGGB:
		return "RGGB"
	case BGGR:
		return "BGGR"
	case GRBG:
		return "GRBG"
	case GBRG:
		return "GBRG"
	}
	return fmt.Sprintf("BayerPattern(%d)", int(p))
}

// RAW is a single-plane Bayer mosaic as read off a simulated sensor,
// values nominally in [0,1].
type RAW struct {
	W, H    int
	Pix     []float64
	Pattern BayerPattern
}

// NewRAW allocates a zero RAW frame.
func NewRAW(w, h int, p BayerPattern) *RAW {
	return &RAW{W: w, H: h, Pix: make([]float64, w*h), Pattern: p}
}

// cfaTile returns the channel layout of the 2x2 CFA tile, row-major.
func cfaTile(p BayerPattern) [4]int {
	switch p {
	case RGGB:
		return [4]int{0, 1, 1, 2}
	case BGGR:
		return [4]int{2, 1, 1, 0}
	case GRBG:
		return [4]int{1, 0, 2, 1}
	case GBRG:
		return [4]int{1, 2, 0, 1}
	}
	return [4]int{}
}

// Mosaic samples a full-color image through the CFA, producing the RAW frame
// an ideal noiseless sensor would record.
func Mosaic(im *Image, p BayerPattern) *RAW { return (*Scratch)(nil).Mosaic(im, p) }

// Mosaic is the package-level Mosaic into scratch storage.
func (s *Scratch) Mosaic(im *Image, p BayerPattern) *RAW {
	r := s.raw(im.W, im.H, p)
	tile := cfaTile(p)
	for y := 0; y < im.H; y++ {
		src, dst := im.row(y), r.row(y)
		t := tile[(y&1)*2:]
		for x := range dst {
			dst[x] = src[x*3+t[x&1]]
		}
	}
	return r
}

// row returns the samples of frame row y.
func (r *RAW) row(y int) []float64 { return r.Pix[y*r.W : (y+1)*r.W] }
