package isp

import "math"

// DenoiseAlg selects the denoising algorithm (Table 3 row "Denoising").
type DenoiseAlg int

// Denoise variants. FBDD-style two-pass denoising is the baseline; Option 1
// omits the stage; Option 2 is wavelet BayesShrink.
const (
	DenoiseFBDD DenoiseAlg = iota
	DenoiseNone
	DenoiseWavelet
)

// String implements fmt.Stringer.
func (a DenoiseAlg) String() string {
	switch a {
	case DenoiseFBDD:
		return "fbdd"
	case DenoiseNone:
		return "none"
	case DenoiseWavelet:
		return "wavelet-bayesshrink"
	}
	return "denoise?"
}

// denoise leaves im untouched; DenoiseNone returns im itself.
func (s *Scratch) denoise(im *Image, alg DenoiseAlg) *Image {
	switch alg {
	case DenoiseNone:
		return im
	case DenoiseWavelet:
		return s.denoiseWaveletBayesShrink(im)
	default:
		return s.denoiseFBDD(im)
	}
}

// clampRows3 returns rows y-1, y, y+1 of the image with the edge row
// repeated, and clampCols3 the matching sample offsets of columns x-1, x,
// x+1: the clamp-to-edge 3×3 neighbourhood of the smoothing filters.
func (im *Image) clampRows3(y int) [3][]float64 {
	return [3][]float64{im.row(max(y-1, 0)), im.row(y), im.row(min(y+1, im.H-1))}
}

func (im *Image) clampCols3(x int) [3]int {
	return [3]int{max(x-1, 0) * 3, x * 3, min(x+1, im.W-1) * 3}
}

// denoiseFBDD approximates FBDD (Fake Before Demosaicing Denoising as used
// by LibRaw/dcraw): an impulse-suppression pass (median of the 3x3
// neighborhood when the centre is an outlier) followed by a light Gaussian
// smoothing of chroma-like high frequencies.
//
// The 3×3 median reads sorted columns: per row and channel, the window's
// left, middle and right column triples (rows y-1, y, y+1) slide along x in
// locals, so each triple is sorted once and read by the three windows that
// share it (columnMedian).
func (s *Scratch) denoiseFBDD(im *Image) *Image {
	out := s.image(im.W, im.H)
	for y := 0; y < im.H; y++ {
		rows, o := im.clampRows3(y), out.row(y)
		up, row, down := rows[0], rows[1], rows[2]
		for c := 0; c < 3; c++ {
			// At x = 0 the clamped left column repeats the middle one.
			mLo, mMid, mHi := sort3(up[c], row[c], down[c])
			lLo, lMid, lHi := mLo, mMid, mHi
			for x := 0; x < im.W; x++ {
				r := min(x+1, im.W-1)*3 + c
				rLo, rMid, rHi := sort3(up[r], row[r], down[r])
				m := x*3 + c
				v := row[m]
				med := columnMedian(lLo, mLo, rLo, lMid, mMid, rMid, lHi, mHi, rHi)
				// Impulse test: centre far outside the local range.
				if math.Abs(v-med) > 0.15 {
					v = med
				}
				o[m] = v
				lLo, lMid, lHi = mLo, mMid, mHi
				mLo, mMid, mHi = rLo, rMid, rHi
			}
		}
	}
	return s.gaussian3(out, 0.35)
}

// columnMedian returns the median of a 3×3 window from its three columns,
// each sorted ascending (lo ≤ mid ≤ hi): med3 of the largest low, the median
// middle and the smallest high. That is the standard selection identity, and
// it is exact: sort3 plus this is a network of mins and maxes, so by the
// zero-one principle it selects the fifth of nine for every input once it
// does for all 512 windows of zeros and ones, which TestMedian9MatchesSort
// checks. An edge-repeated column is just a column that occurs twice. The
// values must not be NaN — images are finite by construction — and when the
// median is a zero its sign is the min/max pick; the only consumer is
// gaussian3, whose sums start from +0 and so read both zeros alike.
func columnMedian(lo0, lo1, lo2, mid0, mid1, mid2, hi0, hi1, hi2 float64) float64 {
	return med3(max(lo0, lo1, lo2), med3(mid0, mid1, mid2), min(hi0, hi1, hi2))
}

// sort3 returns a, b, c in ascending order: three compare-exchanges.
func sort3(a, b, c float64) (float64, float64, float64) {
	a, b = minmax(a, b)
	b, c = minmax(b, c)
	a, b = minmax(a, b)
	return a, b, c
}

// med3 returns the median of three values.
func med3(a, b, c float64) float64 {
	return max(min(a, b), min(max(a, b), c))
}

// minmax is one compare-exchange: (a, b) in ascending order. The builtins
// keep it branch-free — sensor noise makes the comparisons unpredictable.
func minmax(a, b float64) (float64, float64) {
	return min(a, b), max(a, b)
}

// gaussian3 applies a 3x3 blur with centre weight (1-a) and the remaining
// mass a spread over the 8 neighbors — a cheap separable-ish smoother. The
// nine products are added in window scan order from +0.
func (s *Scratch) gaussian3(im *Image, a float64) *Image {
	out := s.image(im.W, im.H)
	side, centre := a/8, 1-a
	for y := 0; y < im.H; y++ {
		rows, o := im.clampRows3(y), out.row(y)
		for x := 0; x < im.W; x++ {
			xs := im.clampCols3(x)
			for c := 0; c < 3; c++ {
				l, m, r := xs[0]+c, xs[1]+c, xs[2]+c
				var sum float64
				sum += rows[0][l] * side
				sum += rows[0][m] * side
				sum += rows[0][r] * side
				sum += rows[1][l] * side
				sum += rows[1][m] * centre
				sum += rows[1][r] * side
				sum += rows[2][l] * side
				sum += rows[2][m] * side
				sum += rows[2][r] * side
				o[m] = sum
			}
		}
	}
	return out
}

// denoiseWaveletBayesShrink performs one level of a 2-D Haar wavelet
// transform per channel, soft-thresholds the detail coefficients with the
// BayesShrink threshold T = σ²/σ_x (noise σ estimated from the diagonal
// subband median), and reconstructs.
func (s *Scratch) denoiseWaveletBayesShrink(im *Image) *Image {
	out := s.image(im.W, im.H)
	copy(out.Pix, im.Pix)
	w2, h2 := im.W/2, im.H/2
	if w2 == 0 || h2 == 0 {
		return out
	}
	n := w2 * h2
	sub := s.plane(5 * n)
	ll, lh, hl, hh, abs := sub[:n], sub[n:2*n], sub[2*n:3*n], sub[3*n:4*n], sub[4*n:]
	for c := 0; c < 3; c++ {
		// Forward Haar on 2x2 blocks.
		for y := 0; y < h2; y++ {
			top, bottom := im.row(2*y), im.row(min(2*y+1, im.H-1))
			for x := 0; x < w2; x++ {
				x0, x1 := 2*x*3+c, min(2*x+1, im.W-1)*3+c
				a, b, d, e := top[x0], top[x1], bottom[x0], bottom[x1]
				i := y*w2 + x
				ll[i] = (a + b + d + e) / 2
				lh[i] = (a - b + d - e) / 2
				hl[i] = (a + b - d - e) / 2
				hh[i] = (a - b - d + e) / 2
			}
		}
		// BayesShrink threshold from the HH subband.
		sigma := medianAbs(hh, abs) / 0.6745
		t := bayesThreshold(hh, sigma)
		softThreshold(lh, t)
		softThreshold(hl, t)
		softThreshold(hh, t)
		// Inverse Haar. 2x+1 < W and 2y+1 < H for every block, since
		// w2 = W/2 and h2 = H/2 round down.
		for y := 0; y < h2; y++ {
			top, bottom := out.row(2*y), out.row(2*y+1)
			for x := 0; x < w2; x++ {
				i := y*w2 + x
				x0, x1 := 2*x*3+c, (2*x+1)*3+c
				top[x0] = clamp01((ll[i] + lh[i] + hl[i] + hh[i]) / 2)
				top[x1] = clamp01((ll[i] - lh[i] + hl[i] - hh[i]) / 2)
				bottom[x0] = clamp01((ll[i] + lh[i] - hl[i] - hh[i]) / 2)
				bottom[x1] = clamp01((ll[i] - lh[i] - hl[i] + hh[i]) / 2)
			}
		}
	}
	return out
}

// medianAbs returns the upper median of |v|, using tmp (len(v)) as working
// storage.
func medianAbs(v, tmp []float64) float64 {
	for i, x := range v {
		tmp[i] = math.Abs(x)
	}
	return selectKth(tmp, len(tmp)/2)
}

// selectKth returns the k-th smallest element of v (0-based) — the value
// sort.Float64s(v); v[k] would give — by quickselect, reordering v. v must
// not contain NaN.
func selectKth(v []float64, k int) float64 {
	lo, hi := 0, len(v)-1
	for hi-lo > 8 {
		// Median-of-three pivot, then Hoare partition.
		mid := lo + (hi-lo)/2
		if v[mid] < v[lo] {
			v[mid], v[lo] = v[lo], v[mid]
		}
		if v[hi] < v[lo] {
			v[hi], v[lo] = v[lo], v[hi]
		}
		if v[hi] < v[mid] {
			v[hi], v[mid] = v[mid], v[hi]
		}
		pivot := v[mid]
		i, j := lo, hi
		for i <= j {
			for v[i] < pivot {
				i++
			}
			for v[j] > pivot {
				j--
			}
			if i <= j {
				v[i], v[j] = v[j], v[i]
				i++
				j--
			}
		}
		// v[lo..j] <= pivot <= v[i..hi], and anything between is the pivot.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return v[k]
		}
	}
	// Insertion sort of the short remainder.
	for i := lo + 1; i <= hi; i++ {
		for j := i; j > lo && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
	return v[k]
}

// bayesThreshold computes σ²/σ_x where σ_x² = max(var(subband) - σ², 0).
func bayesThreshold(sub []float64, sigma float64) float64 {
	var sumsq float64
	for _, v := range sub {
		sumsq += v * v
	}
	varY := sumsq / float64(len(sub))
	varX := varY - sigma*sigma
	if varX <= 1e-12 {
		return math.Inf(1) // kill the whole subband: it is all noise
	}
	return sigma * sigma / math.Sqrt(varX)
}

func softThreshold(v []float64, t float64) {
	if math.IsInf(t, 1) {
		for i := range v {
			v[i] = 0
		}
		return
	}
	for i, x := range v {
		switch {
		case x > t:
			v[i] = x - t
		case x < -t:
			v[i] = x + t
		default:
			v[i] = 0
		}
	}
}
