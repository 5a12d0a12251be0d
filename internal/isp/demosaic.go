package isp

import "math"

// DemosaicAlg selects the demosaicing algorithm (Table 3 row "Demosaicing").
type DemosaicAlg int

// Demosaic variants. PPG-style gradient-corrected interpolation is the
// paper's baseline; pixel binning is Option 1; AHD-style edge-directed
// interpolation is Option 2.
const (
	DemosaicPPG DemosaicAlg = iota
	DemosaicBinning
	DemosaicAHD
)

// String implements fmt.Stringer.
func (a DemosaicAlg) String() string {
	switch a {
	case DemosaicPPG:
		return "ppg"
	case DemosaicBinning:
		return "binning"
	case DemosaicAHD:
		return "ahd"
	}
	return "demosaic?"
}

func (s *Scratch) demosaic(r *RAW, alg DemosaicAlg) *Image {
	switch alg {
	case DemosaicBinning:
		return s.demosaicBinning(r)
	case DemosaicAHD:
		return s.demosaicAHD(r)
	default:
		return s.demosaicPPG(r)
	}
}

// reflect mirrors an out-of-range coordinate back into [0, n). Mirror
// reflection (without repeating the edge sample) preserves CFA parity, which
// keeps demosaicing correct at the borders. A one-sample axis has nothing to
// mirror around and maps everything to 0.
func reflect(v, n int) int {
	if n == 1 {
		return 0
	}
	for v < 0 || v >= n {
		if v < 0 {
			v = -v
		}
		if v >= n {
			v = 2*n - 2 - v
		}
	}
	return v
}

// cfaTaps lists, for each (row, column) parity of a pixel and each channel,
// which positions of the pixel's 3×3 window pass that channel, in scan
// order — the order the window sums add them in. Reflection preserves
// parity, so one table serves interior and border pixels alike.
type cfaTaps [2][2][3]struct {
	n      int
	dy, dx [9]uint8 // window row and column, 0..2
}

func newCFATaps(p BayerPattern) (t cfaTaps) {
	tile := cfaTile(p)
	for py := 0; py < 2; py++ {
		for px := 0; px < 2; px++ {
			for dy := 0; dy < 3; dy++ {
				for dx := 0; dx < 3; dx++ {
					e := &t[py][px][tile[((py+dy-1)&1)*2+((px+dx-1)&1)]]
					e.dy[e.n], e.dx[e.n] = uint8(dy), uint8(dx)
					e.n++
				}
			}
		}
	}
	return t
}

// reflectRows3 returns rows y-1, y, y+1 of the frame, and reflectCols3 the
// columns x-1, x, x+1, both mirror-reflected at the borders: the 3×3 RAW
// neighbourhood the tap lists index.
func (r *RAW) reflectRows3(y int) [3][]float64 {
	return [3][]float64{r.row(reflect(y-1, r.H)), r.row(y), r.row(reflect(y+1, r.H))}
}

func (r *RAW) reflectCols3(x int) [3]int {
	return [3]int{reflect(x-1, r.W), x, reflect(x+1, r.W)}
}

// demosaicBilinear is the plain per-channel neighborhood average used as the
// base layer of the fancier variants and exported for RAW-mode training
// (Section 3.3 trains on demosaic-only data): a channel the site does not
// sample is the mean of the 3×3 window's sites that do.
func (s *Scratch) demosaicBilinear(r *RAW) *Image {
	im := s.image(r.W, r.H)
	tile, taps := cfaTile(r.Pattern), newCFATaps(r.Pattern)
	for y := 0; y < r.H; y++ {
		rows, out := r.reflectRows3(y), im.row(y)
		for x := 0; x < r.W; x++ {
			xs := r.reflectCols3(x)
			site := tile[(y&1)*2+(x&1)]
			for c := 0; c < 3; c++ {
				if c == site {
					out[x*3+c] = rows[1][x]
					continue
				}
				e := &taps[y&1][x&1][c]
				var sum float64
				for k := 0; k < e.n; k++ {
					sum += rows[e.dy[k]][xs[e.dx[k]]]
				}
				if e.n == 0 {
					out[x*3+c] = 0
				} else {
					out[x*3+c] = sum / float64(e.n)
				}
			}
		}
	}
	return im
}

// demosaicPPG approximates Pixel Grouping: bilinear interpolation with a
// same-channel Laplacian gradient correction (Malvar-style), which is what
// PPG's pattern classification converges to on smooth regions.
func (s *Scratch) demosaicPPG(r *RAW) *Image {
	im := s.demosaicBilinear(r)
	tile := cfaTile(r.Pattern)
	for y := 0; y < r.H; y++ {
		row, up, down := r.row(y), r.row(reflect(y-2, r.H)), r.row(reflect(y+2, r.H))
		out := im.row(y)
		for x := 0; x < r.W; x++ {
			// Correct the interpolated green at R/B sites using the local
			// curvature of the site's own channel.
			if tile[(y&1)*2+(x&1)] != 1 {
				lap := 4*row[x] - row[reflect(x-2, r.W)] - row[reflect(x+2, r.W)] - up[x] - down[x]
				out[x*3+1] = clamp01(out[x*3+1] + lap/8)
			}
		}
	}
	return im
}

// demosaicAHD approximates Adaptive Homogeneity-Directed demosaicing: green
// is interpolated along the direction of least gradient, then chroma is
// reconstructed from bilinear color differences.
func (s *Scratch) demosaicAHD(r *RAW) *Image {
	im := s.image(r.W, r.H)
	tile, taps := cfaTile(r.Pattern), newCFATaps(r.Pattern)
	// Pass 1: green plane, edge-directed at non-green sites.
	for y := 0; y < r.H; y++ {
		near := r.reflectRows3(y)
		row, up2, down2 := near[1], r.row(reflect(y-2, r.H)), r.row(reflect(y+2, r.H))
		out := im.row(y)
		for x := 0; x < r.W; x++ {
			if tile[(y&1)*2+(x&1)] == 1 {
				out[x*3+1] = row[x]
				continue
			}
			gl, gr := row[reflect(x-1, r.W)], row[reflect(x+1, r.W)]
			gu, gd := near[0][x], near[2][x]
			center := row[x]
			gradH := math.Abs(gl-gr) + math.Abs(2*center-row[reflect(x-2, r.W)]-row[reflect(x+2, r.W)])
			gradV := math.Abs(gu-gd) + math.Abs(2*center-up2[x]-down2[x])
			var g float64
			switch {
			case gradH < gradV:
				g = (gl + gr) / 2
			case gradV < gradH:
				g = (gu + gd) / 2
			default:
				g = (gl + gr + gu + gd) / 4
			}
			out[x*3+1] = clamp01(g)
		}
	}
	// Pass 2: chroma via color-difference interpolation against green.
	for y := 0; y < r.H; y++ {
		rows, out := r.reflectRows3(y), im.row(y)
		green := [3][]float64{im.row(reflect(y-1, r.H)), out, im.row(reflect(y+1, r.H))}
		for x := 0; x < r.W; x++ {
			xs := r.reflectCols3(x)
			site := tile[(y&1)*2+(x&1)]
			for c := 0; c < 3; c += 2 {
				if c == site {
					out[x*3+c] = rows[1][x]
					continue
				}
				// Average the color difference (C - G) over CFA sites of
				// channel c in the 3x3 neighborhood.
				e := &taps[y&1][x&1][c]
				var sum float64
				for k := 0; k < e.n; k++ {
					xx := xs[e.dx[k]]
					sum += rows[e.dy[k]][xx] - green[e.dy[k]][xx*3+1]
				}
				if e.n == 0 {
					out[x*3+c] = 0
				} else {
					out[x*3+c] = clamp01(out[x*3+1] + sum/float64(e.n))
				}
			}
		}
	}
	return im
}

// demosaicBinning merges each 2x2 CFA tile into one RGB superpixel at half
// resolution and bilinearly upsamples back, trading detail for noise — the
// behaviour of sensor pixel binning.
func (s *Scratch) demosaicBinning(r *RAW) *Image {
	hw, hh := (r.W+1)/2, (r.H+1)/2
	small := s.image(hw, hh)
	tile := cfaTile(r.Pattern)
	for ty := 0; ty < hh; ty++ {
		out := small.row(ty)
		for tx := 0; tx < hw; tx++ {
			var sums [3]float64
			var counts [3]int
			for dy := 0; dy < 2; dy++ {
				for dx := 0; dx < 2; dx++ {
					x, y := tx*2+dx, ty*2+dy
					if x >= r.W || y >= r.H {
						continue
					}
					c := tile[dy*2+dx]
					sums[c] += r.Pix[y*r.W+x]
					counts[c]++
				}
			}
			for c := 0; c < 3; c++ {
				if counts[c] > 0 {
					out[tx*3+c] = sums[c] / float64(counts[c])
				} else {
					out[tx*3+c] = 0
				}
			}
		}
	}
	return s.Resize(small, r.W, r.H)
}
