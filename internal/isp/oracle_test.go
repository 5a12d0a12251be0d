package isp

import (
	"bytes"
	"fmt"
	"image"
	"image/color"
	"image/jpeg"
	"math"
	"sort"
)

// The capture path's implementations as they stood before the hot loops were
// rewritten — per-tap At/Set with clampInt or reflect, sort.Float64s for
// every median and percentile, a Clone per stage, the boxed At().RGBA()
// image conversions — kept verbatim (renamed ref*) as the tol-0 oracles of
// differential_test.go.

// neighborAvg averages the CFA samples of channel c in the (2k+1)² window
// centred at (x, y), excluding the centre unless it is channel c.
func refNeighborAvg(r *RAW, x, y, c, k int) float64 {
	var sum float64
	n := 0
	for dy := -k; dy <= k; dy++ {
		for dx := -k; dx <= k; dx++ {
			xx, yy := reflect(x+dx, r.W), reflect(y+dy, r.H)
			if cfaColor(r.Pattern, xx, yy) == c {
				sum += r.At(xx, yy)
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// demosaicBilinear is the plain per-channel neighborhood average used as the
// base layer of the fancier variants and exported for RAW-mode training
// (Section 3.3 trains on demosaic-only data).
func refDemosaicBilinear(r *RAW) *Image {
	im := NewImage(r.W, r.H)
	for y := 0; y < r.H; y++ {
		for x := 0; x < r.W; x++ {
			site := cfaColor(r.Pattern, x, y)
			for c := 0; c < 3; c++ {
				if c == site {
					im.Set(x, y, c, r.At(x, y))
				} else {
					im.Set(x, y, c, refNeighborAvg(r, x, y, c, 1))
				}
			}
		}
	}
	return im
}

// demosaicPPG approximates Pixel Grouping: bilinear interpolation with a
// same-channel Laplacian gradient correction (Malvar-style), which is what
// PPG's pattern classification converges to on smooth regions.
func refDemosaicPPG(r *RAW) *Image {
	im := refDemosaicBilinear(r)
	for y := 0; y < r.H; y++ {
		for x := 0; x < r.W; x++ {
			site := cfaColor(r.Pattern, x, y)
			center := r.At(x, y)
			// Correct the interpolated green at R/B sites using the local
			// curvature of the site's own channel.
			if site != 1 {
				lap := 4*center - refRawAt(r, x-2, y) - refRawAt(r, x+2, y) - refRawAt(r, x, y-2) - refRawAt(r, x, y+2)
				g := im.At(x, y, 1) + lap/8
				im.Set(x, y, 1, clamp01(g))
			}
		}
	}
	return im
}

// demosaicAHD approximates Adaptive Homogeneity-Directed demosaicing: green
// is interpolated along the direction of least gradient, then chroma is
// reconstructed from bilinear color differences.
func refDemosaicAHD(r *RAW) *Image {
	im := NewImage(r.W, r.H)
	// Pass 1: green plane, edge-directed at non-green sites.
	for y := 0; y < r.H; y++ {
		for x := 0; x < r.W; x++ {
			if cfaColor(r.Pattern, x, y) == 1 {
				im.Set(x, y, 1, r.At(x, y))
				continue
			}
			gl, gr := refRawAt(r, x-1, y), refRawAt(r, x+1, y)
			gu, gd := refRawAt(r, x, y-1), refRawAt(r, x, y+1)
			center := r.At(x, y)
			gradH := math.Abs(gl-gr) + math.Abs(2*center-refRawAt(r, x-2, y)-refRawAt(r, x+2, y))
			gradV := math.Abs(gu-gd) + math.Abs(2*center-refRawAt(r, x, y-2)-refRawAt(r, x, y+2))
			var g float64
			switch {
			case gradH < gradV:
				g = (gl + gr) / 2
			case gradV < gradH:
				g = (gu + gd) / 2
			default:
				g = (gl + gr + gu + gd) / 4
			}
			im.Set(x, y, 1, clamp01(g))
		}
	}
	// Pass 2: chroma via color-difference interpolation against green.
	for y := 0; y < r.H; y++ {
		for x := 0; x < r.W; x++ {
			site := cfaColor(r.Pattern, x, y)
			for _, c := range []int{0, 2} {
				if c == site {
					im.Set(x, y, c, r.At(x, y))
					continue
				}
				// Average the color difference (C - G) over CFA sites of
				// channel c in the 3x3 neighborhood.
				var sum float64
				n := 0
				for dy := -1; dy <= 1; dy++ {
					for dx := -1; dx <= 1; dx++ {
						xx := reflect(x+dx, r.W)
						yy := reflect(y+dy, r.H)
						if cfaColor(r.Pattern, xx, yy) == c {
							sum += r.At(xx, yy) - im.At(xx, yy, 1)
							n++
						}
					}
				}
				if n > 0 {
					im.Set(x, y, c, clamp01(im.At(x, y, 1)+sum/float64(n)))
				}
			}
		}
	}
	return im
}

// demosaicBinning merges each 2x2 CFA tile into one RGB superpixel at half
// resolution and bilinearly upsamples back, trading detail for noise — the
// behaviour of sensor pixel binning.
func refDemosaicBinning(r *RAW) *Image {
	hw, hh := (r.W+1)/2, (r.H+1)/2
	small := NewImage(hw, hh)
	for ty := 0; ty < hh; ty++ {
		for tx := 0; tx < hw; tx++ {
			var sums [3]float64
			var counts [3]int
			for dy := 0; dy < 2; dy++ {
				for dx := 0; dx < 2; dx++ {
					x, y := tx*2+dx, ty*2+dy
					if x >= r.W || y >= r.H {
						continue
					}
					c := cfaColor(r.Pattern, x, y)
					sums[c] += r.At(x, y)
					counts[c]++
				}
			}
			for c := 0; c < 3; c++ {
				if counts[c] > 0 {
					small.Set(tx, ty, c, sums[c]/float64(counts[c]))
				}
			}
		}
	}
	return refResize(small, r.W, r.H)
}

// rawAt reads the RAW with mirror-reflected borders.
func refRawAt(r *RAW, x, y int) float64 {
	return r.At(reflect(x, r.W), reflect(y, r.H))
}

// denoiseFBDD approximates FBDD (Fake Before Demosaicing Denoising as used
// by LibRaw/dcraw): an impulse-suppression pass (median of the 3x3
// neighborhood when the centre is an outlier) followed by a light Gaussian
// smoothing of chroma-like high frequencies.
func refDenoiseFBDD(im *Image) *Image {
	out := im.Clone()
	var window [9]float64
	for c := 0; c < 3; c++ {
		for y := 0; y < im.H; y++ {
			for x := 0; x < im.W; x++ {
				k := 0
				for dy := -1; dy <= 1; dy++ {
					for dx := -1; dx <= 1; dx++ {
						window[k] = im.At(clampInt(x+dx, 0, im.W-1), clampInt(y+dy, 0, im.H-1), c)
						k++
					}
				}
				v := im.At(x, y, c)
				w := window[:]
				sort.Float64s(w)
				med := w[4]
				// Impulse test: centre far outside the local range.
				if math.Abs(v-med) > 0.15 {
					out.Set(x, y, c, med)
				}
			}
		}
	}
	return refGaussian3(out, 0.35)
}

// gaussian3 applies a 3x3 blur with centre weight (1-a) and the remaining
// mass a spread over the 8 neighbors — a cheap separable-ish smoother.
func refGaussian3(im *Image, a float64) *Image {
	out := NewImage(im.W, im.H)
	side := a / 8
	for c := 0; c < 3; c++ {
		for y := 0; y < im.H; y++ {
			for x := 0; x < im.W; x++ {
				var s float64
				for dy := -1; dy <= 1; dy++ {
					for dx := -1; dx <= 1; dx++ {
						v := im.At(clampInt(x+dx, 0, im.W-1), clampInt(y+dy, 0, im.H-1), c)
						if dx == 0 && dy == 0 {
							s += v * (1 - a)
						} else {
							s += v * side
						}
					}
				}
				out.Set(x, y, c, s)
			}
		}
	}
	return out
}

// denoiseWaveletBayesShrink performs one level of a 2-D Haar wavelet
// transform per channel, soft-thresholds the detail coefficients with the
// BayesShrink threshold T = σ²/σ_x (noise σ estimated from the diagonal
// subband median), and reconstructs.
func refDenoiseWavelet(im *Image) *Image {
	out := im.Clone()
	w2, h2 := im.W/2, im.H/2
	if w2 == 0 || h2 == 0 {
		return out
	}
	ll := make([]float64, w2*h2)
	lh := make([]float64, w2*h2)
	hl := make([]float64, w2*h2)
	hh := make([]float64, w2*h2)
	for c := 0; c < 3; c++ {
		// Forward Haar on 2x2 blocks.
		for y := 0; y < h2; y++ {
			for x := 0; x < w2; x++ {
				a := im.At(2*x, 2*y, c)
				b := im.At(clampInt(2*x+1, 0, im.W-1), 2*y, c)
				d := im.At(2*x, clampInt(2*y+1, 0, im.H-1), c)
				e := im.At(clampInt(2*x+1, 0, im.W-1), clampInt(2*y+1, 0, im.H-1), c)
				i := y*w2 + x
				ll[i] = (a + b + d + e) / 2
				lh[i] = (a - b + d - e) / 2
				hl[i] = (a + b - d - e) / 2
				hh[i] = (a - b - d + e) / 2
			}
		}
		// BayesShrink threshold from the HH subband.
		sigma := refMedianAbs(hh) / 0.6745
		t := bayesThreshold(hh, sigma)
		softThreshold(lh, t)
		softThreshold(hl, t)
		softThreshold(hh, t)
		// Inverse Haar.
		for y := 0; y < h2; y++ {
			for x := 0; x < w2; x++ {
				i := y*w2 + x
				a := (ll[i] + lh[i] + hl[i] + hh[i]) / 2
				b := (ll[i] - lh[i] + hl[i] - hh[i]) / 2
				d := (ll[i] + lh[i] - hl[i] - hh[i]) / 2
				e := (ll[i] - lh[i] - hl[i] + hh[i]) / 2
				out.Set(2*x, 2*y, c, clamp01(a))
				if 2*x+1 < im.W {
					out.Set(2*x+1, 2*y, c, clamp01(b))
				}
				if 2*y+1 < im.H {
					out.Set(2*x, 2*y+1, c, clamp01(d))
				}
				if 2*x+1 < im.W && 2*y+1 < im.H {
					out.Set(2*x+1, 2*y+1, c, clamp01(e))
				}
			}
		}
	}
	return out
}

func refMedianAbs(v []float64) float64 {
	tmp := make([]float64, len(v))
	for i, x := range v {
		tmp[i] = math.Abs(x)
	}
	sort.Float64s(tmp)
	return tmp[len(tmp)/2]
}

// wbWhitePatch scales each channel so its 99th percentile maps to the
// overall 99th percentile (robust max-RGB).
func refWBWhitePatch(im *Image) *Image {
	n := im.W * im.H
	var highs [3]float64
	tmp := make([]float64, n)
	for c := 0; c < 3; c++ {
		for i := 0; i < n; i++ {
			tmp[i] = im.Pix[i*3+c]
		}
		sort.Float64s(tmp)
		highs[c] = tmp[(n*99)/100]
	}
	target := math.Max(highs[0], math.Max(highs[1], highs[2]))
	out := im.Clone()
	var gains [3]float64
	for c := 0; c < 3; c++ {
		if highs[c] > 1e-9 {
			gains[c] = target / highs[c]
		} else {
			gains[c] = 1
		}
	}
	applyGains(out, gains)
	return out
}

// ToNRGBA converts to an 8-bit standard-library image (values clamped).
func refToNRGBA(im *Image) *image.NRGBA {
	out := image.NewNRGBA(image.Rect(0, 0, im.W, im.H))
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			i := (y*im.W + x) * 3
			out.SetNRGBA(x, y, color.NRGBA{
				R: to8(im.Pix[i]),
				G: to8(im.Pix[i+1]),
				B: to8(im.Pix[i+2]),
				A: 255,
			})
		}
	}
	return out
}

// FromGoImage converts any stdlib image into a float Image.
func refFromGoImage(src image.Image) *Image {
	b := src.Bounds()
	im := NewImage(b.Dx(), b.Dy())
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			r, g, bl, _ := src.At(b.Min.X+x, b.Min.Y+y).RGBA()
			i := (y*im.W + x) * 3
			im.Pix[i] = float64(r) / 65535
			im.Pix[i+1] = float64(g) / 65535
			im.Pix[i+2] = float64(bl) / 65535
		}
	}
	return im
}

// Resize bilinearly resamples the image to (w, h).
func refResize(im *Image, w, h int) *Image {
	if w == im.W && h == im.H {
		return im.Clone()
	}
	out := NewImage(w, h)
	sx := float64(im.W) / float64(w)
	sy := float64(im.H) / float64(h)
	for y := 0; y < h; y++ {
		fy := (float64(y)+0.5)*sy - 0.5
		y0 := int(math.Floor(fy))
		ty := fy - float64(y0)
		y1 := y0 + 1
		y0 = clampInt(y0, 0, im.H-1)
		y1 = clampInt(y1, 0, im.H-1)
		for x := 0; x < w; x++ {
			fx := (float64(x)+0.5)*sx - 0.5
			x0 := int(math.Floor(fx))
			tx := fx - float64(x0)
			x1 := x0 + 1
			x0 = clampInt(x0, 0, im.W-1)
			x1 = clampInt(x1, 0, im.W-1)
			for c := 0; c < 3; c++ {
				v00 := im.At(x0, y0, c)
				v10 := im.At(x1, y0, c)
				v01 := im.At(x0, y1, c)
				v11 := im.At(x1, y1, c)
				top := v00 + (v10-v00)*tx
				bot := v01 + (v11-v01)*tx
				out.Set(x, y, c, top+(bot-top)*ty)
			}
		}
	}
	return out
}

// Mosaic samples a full-color image through the CFA, producing the RAW frame
// an ideal noiseless sensor would record.
func refMosaic(im *Image, p BayerPattern) *RAW {
	r := NewRAW(im.W, im.H, p)
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			r.Set(x, y, im.At(x, y, cfaColor(p, x, y)))
		}
	}
	return r
}

// JPEGRoundtrip encodes the image as JPEG at the given quality using the
// standard library codec and decodes it back to float.
func refJPEGRoundtrip(im *Image, quality int) (*Image, error) {
	var buf bytes.Buffer
	if err := jpeg.Encode(&buf, refToNRGBA(im), &jpeg.Options{Quality: quality}); err != nil {
		return nil, fmt.Errorf("isp: jpeg encode: %w", err)
	}
	decoded, err := jpeg.Decode(&buf)
	if err != nil {
		return nil, fmt.Errorf("isp: jpeg decode: %w", err)
	}
	return refFromGoImage(decoded), nil
}

// SRGBEncode applies the standard piecewise sRGB opto-electronic transfer
// function to a linear value in [0,1].
func refSRGBEncode(v float64) float64 {
	if v <= 0.0031308 {
		return 12.92 * v
	}
	return 1.055*math.Pow(v, 1/2.4) - 0.055
}

// ToneTransform applies the tone curve, returning a new image.
func refToneTransform(im *Image, alg ToneAlg) *Image {
	out := im.Clone()
	if alg == ToneNone {
		return out
	}
	for i, v := range out.Pix {
		out.Pix[i] = refSRGBEncode(clamp01(v))
	}
	if alg == ToneSRGBGammaEq {
		out = refEqualizeTone(out, 0.5)
	}
	return out
}

// equalizeTone blends each pixel's luma toward its histogram-equalized value
// with strength `amount`, preserving chroma ratios — a simple global tone
// equalization as bundled with camera "auto contrast" modes.
func refEqualizeTone(im *Image, amount float64) *Image {
	const bins = 256
	n := im.W * im.H
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
	out := im.Clone()
	for i := 0; i < n; i++ {
		l := clamp01(im.Luma(i))
		eq := cdf[int(l*(bins-1))]
		target := l + (eq-l)*amount
		if l > 1e-9 {
			scale := target / l
			for c := 0; c < 3; c++ {
				out.Pix[i*3+c] = clamp01(im.Pix[i*3+c] * scale)
			}
		} else {
			for c := 0; c < 3; c++ {
				out.Pix[i*3+c] = target
			}
		}
	}
	return out
}
