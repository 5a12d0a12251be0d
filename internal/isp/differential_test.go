package isp

import (
	"bytes"
	"image"
	"image/jpeg"
	"math"
	"sort"
	"testing"

	"heteroswitch/internal/frand"
)

// Differential tests at tolerance zero: every rewritten primitive of the
// capture path against the implementation it replaced (oracle_test.go).
// Images are compared by math.Float64bits.

func sameBits(t *testing.T, what string, got, want *Image) {
	t.Helper()
	if got.W != want.W || got.H != want.H {
		t.Fatalf("%s: size %dx%d, want %dx%d", what, got.W, got.H, want.W, want.H)
	}
	for i := range want.Pix {
		if math.Float64bits(got.Pix[i]) != math.Float64bits(want.Pix[i]) {
			t.Fatalf("%s: sample %d of %dx%d is %v (%#x), want %v (%#x)", what, i, want.W, want.H,
				got.Pix[i], math.Float64bits(got.Pix[i]), want.Pix[i], math.Float64bits(want.Pix[i]))
		}
	}
}

// noisyImage is a random image with the features the stencils branch on:
// impulses (so the FBDD test fires), exact ties, zeros of both signs, and
// values at the clamp limits.
func noisyImage(w, h int, r *frand.RNG) *Image {
	im := NewImage(w, h)
	for i := range im.Pix {
		switch r.Intn(12) {
		case 0:
			im.Pix[i] = 0
		case 1:
			im.Pix[i] = math.Copysign(0, -1)
		case 2:
			im.Pix[i] = 1
		case 3:
			im.Pix[i] = 0.5 // ties
		default:
			im.Pix[i] = r.Float64()
		}
	}
	return im
}

func noisyRAW(w, h int, p BayerPattern, r *frand.RNG) *RAW {
	raw := NewRAW(w, h, p)
	im := noisyImage(w, h, r)
	copy(raw.Pix, im.Pix)
	return raw
}

// stencilSizes covers the degenerate and the odd: 1×1, 1×N, N×1, 2×2 and
// sizes whose halves round.
var stencilSizes = [][2]int{{1, 1}, {1, 5}, {6, 1}, {2, 2}, {3, 3}, {5, 4}, {7, 9}, {16, 16}, {33, 17}}

// checkStencils compares every clamp-to-edge stencil on one image, through a
// nil scratch (fresh, zeroed buffers) and through sc, whose buffers hold
// whatever the previous image left there.
func checkStencils(t *testing.T, im *Image, sc *Scratch) {
	t.Helper()
	before := im.Clone()
	for _, s := range []*Scratch{nil, sc} {
		s.Reset()
		sameBits(t, "denoiseFBDD", s.denoiseFBDD(im), refDenoiseFBDD(im))
		sameBits(t, "gaussian3", s.gaussian3(im, 0.35), refGaussian3(im, 0.35))
		sameBits(t, "wavelet", s.denoiseWaveletBayesShrink(im), refDenoiseWavelet(im))
		for _, to := range [][2]int{{im.W, im.H}, {1, 1}, {3, 7}, {32, 32}, {2*im.W + 1, im.H + 2}} {
			sameBits(t, "Resize", s.Resize(im, to[0], to[1]), refResize(im, to[0], to[1]))
		}
		wp := im.Clone()
		s.wbWhitePatch(wp)
		sameBits(t, "wbWhitePatch", wp, refWBWhitePatch(im))
		eq := im.Clone()
		equalizeTone(eq, 0.5)
		sameBits(t, "equalizeTone", eq, refEqualizeTone(im, 0.5))
	}
	sameBits(t, "input untouched", im, before)
}

// checkDemosaics compares every demosaicer and Mosaic on one frame. The
// oracle's reflect does not terminate on a one-sample axis, so frames are at
// least 2×2.
func checkDemosaics(t *testing.T, raw *RAW, sc *Scratch) {
	t.Helper()
	for _, s := range []*Scratch{nil, sc} {
		s.Reset()
		sameBits(t, "bilinear", s.demosaicBilinear(raw), refDemosaicBilinear(raw))
		sameBits(t, "ppg", s.demosaic(raw, DemosaicPPG), refDemosaicPPG(raw))
		sameBits(t, "ahd", s.demosaic(raw, DemosaicAHD), refDemosaicAHD(raw))
		sameBits(t, "binning", s.demosaic(raw, DemosaicBinning), refDemosaicBinning(raw))
		full := s.demosaicBilinear(raw)
		got, want := s.Mosaic(full, raw.Pattern), refMosaic(full, raw.Pattern)
		for i := range want.Pix {
			if math.Float64bits(got.Pix[i]) != math.Float64bits(want.Pix[i]) {
				t.Fatalf("Mosaic: sample %d differs", i)
			}
		}
	}
}

func TestStencilsMatchOracle(t *testing.T) {
	r := frand.New(11)
	var sc Scratch
	for _, sz := range stencilSizes {
		for rep := 0; rep < 3; rep++ {
			checkStencils(t, noisyImage(sz[0], sz[1], r), &sc)
		}
	}
}

func TestDemosaicsMatchOracle(t *testing.T) {
	r := frand.New(12)
	var sc Scratch
	for _, sz := range stencilSizes {
		if sz[0] < 2 || sz[1] < 2 {
			continue
		}
		for _, p := range []BayerPattern{RGGB, BGGR, GRBG, GBRG} {
			checkDemosaics(t, noisyRAW(sz[0], sz[1], p, r), &sc)
		}
	}
}

// A one-sample axis used to spin forever in reflect; it now terminates and
// still passes the site's own sample through.
func TestDemosaicOneSampleAxisTerminates(t *testing.T) {
	r := frand.New(13)
	for _, sz := range [][2]int{{1, 1}, {1, 6}, {5, 1}} {
		raw := noisyRAW(sz[0], sz[1], RGGB, r)
		for _, alg := range []DemosaicAlg{DemosaicPPG, DemosaicBinning, DemosaicAHD} {
			im := Demosaic(raw, alg)
			if im.W != sz[0] || im.H != sz[1] {
				t.Fatalf("%v on %v: size %dx%d", alg, sz, im.W, im.H)
			}
		}
		im := DemosaicBilinearOnly(raw)
		for y := 0; y < raw.H; y++ {
			for x := 0; x < raw.W; x++ {
				if im.At(x, y, cfaColor(raw.Pattern, x, y)) != raw.At(x, y) {
					t.Fatalf("bilinear on %v lost the site sample at (%d,%d)", sz, x, y)
				}
			}
		}
	}
}

func FuzzStencilsMatchOracle(f *testing.F) {
	f.Add(uint64(1), uint8(1), uint8(1))
	f.Add(uint64(2), uint8(2), uint8(9))
	f.Add(uint64(3), uint8(17), uint8(6))
	f.Fuzz(func(t *testing.T, seed uint64, w, h uint8) {
		w, h = w%24+1, h%24+1
		r := frand.New(seed)
		var sc Scratch
		checkStencils(t, noisyImage(int(w), int(h), r), &sc)
		checkStencils(t, noisyImage(int(h), int(w), r), &sc)
		if w >= 2 && h >= 2 {
			checkDemosaics(t, noisyRAW(int(w), int(h), BayerPattern(seed%4), r), &sc)
		}
	})
}

// refProcess is Pipeline.Process as it was: one fresh image per stage.
func refProcess(p Pipeline, raw *RAW) (*Image, error) {
	var im *Image
	switch p.Demosaic {
	case DemosaicBinning:
		im = refDemosaicBinning(raw)
	case DemosaicAHD:
		im = refDemosaicAHD(raw)
	default:
		im = refDemosaicPPG(raw)
	}
	switch p.Denoise {
	case DenoiseWavelet:
		im = refDenoiseWavelet(im)
	case DenoiseFBDD:
		im = refDenoiseFBDD(im)
	}
	if p.WB == WBWhitePatch {
		im = refWBWhitePatch(im)
	} else {
		im = WhiteBalance(im, p.WB)
	}
	im = refToneTransform(GamutMap(im, p.Gamut), p.Tone)
	if p.Compress != CompressNone {
		var err error
		if im, err = refJPEGRoundtrip(im, p.Compress.quality()); err != nil {
			return nil, err
		}
	}
	im.Clamp()
	return im, nil
}

// One scratch develops frames of changing size through all 18 Table-3 cells:
// whatever a stage leaves in a recycled plane must never show in the next
// image.
func TestProcessMatchesOracleOnDirtyScratch(t *testing.T) {
	r := frand.New(14)
	var sc Scratch
	sizes := [][2]int{{16, 16}, {9, 7}, {24, 10}, {5, 5}, {16, 16}}
	for stage := StageDemosaic; stage < NumStages; stage++ {
		for opt := 0; opt <= 2; opt++ {
			p, err := Baseline().Option(stage, opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, sz := range sizes {
				raw := noisyRAW(sz[0], sz[1], RGGB, r)
				before := raw.Clone()
				want, err := refProcess(p, raw)
				if err != nil {
					t.Fatal(err)
				}
				fresh, err := p.Process(raw)
				if err != nil {
					t.Fatal(err)
				}
				sameBits(t, p.String()+" fresh", fresh, want)
				sc.Reset()
				recycled, err := sc.Process(p, raw)
				if err != nil {
					t.Fatal(err)
				}
				sameBits(t, p.String()+" recycled", recycled, want)
				for i := range before.Pix {
					if math.Float64bits(raw.Pix[i]) != math.Float64bits(before.Pix[i]) {
						t.Fatalf("%v: Process wrote to its RAW input", p)
					}
				}
			}
		}
	}
}

// Median of nine ------------------------------------------------------------

func refMedian9(w [9]float64) float64 {
	s := w[:]
	sort.Float64s(s)
	return s[4]
}

// checkMedian9 takes the window in scan order (row by row), sorts its three
// columns with sort3 the way denoiseFBDD does, and compares columnMedian
// with the sort.
func checkMedian9(t *testing.T, w [9]float64) {
	t.Helper()
	for _, v := range w {
		if v != v {
			return // NaN is outside columnMedian's contract
		}
	}
	var lo, mid, hi [3]float64
	for c := range 3 {
		lo[c], mid[c], hi[c] = sort3(w[c], w[3+c], w[6+c])
		if !(lo[c] <= mid[c] && mid[c] <= hi[c]) {
			t.Fatalf("sort3(%v, %v, %v) = %v, %v, %v", w[c], w[3+c], w[6+c], lo[c], mid[c], hi[c])
		}
	}
	got := columnMedian(lo[0], lo[1], lo[2], mid[0], mid[1], mid[2], hi[0], hi[1], hi[2])
	// == rather than bits: when the median is a zero, which zero is the
	// min/max pick (see columnMedian).
	if want := refMedian9(w); got != want {
		t.Fatalf("columnMedian(%v) = %v, want %v", w, got, want)
	}
}

func TestMedian9MatchesSort(t *testing.T) {
	// Zero-one principle: a min/max network that selects the median of every
	// 0/1 input selects it for every input.
	for bits := 0; bits < 1<<9; bits++ {
		var w [9]float64
		for i := range w {
			w[i] = float64(bits >> i & 1)
		}
		checkMedian9(t, w)
	}
	pool := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072014e-308, 0.15, 0.15, 1,
		-1, math.Inf(1), math.Inf(-1), math.MaxFloat64, 0.5, 0.5000000000000001}
	r := frand.New(15)
	for rep := 0; rep < 30000; rep++ {
		var w [9]float64
		for i := range w {
			switch rep % 3 {
			case 0:
				w[i] = pool[r.Intn(len(pool))] // ties, ±0, denormals, infinities
			case 1:
				w[i] = float64(r.Intn(3)) / 2 // heavy duplicates: three values
			default:
				w[i] = r.NormFloat64()
			}
		}
		checkMedian9(t, w)
	}
	// Edge-repeated columns, as the clamp-to-edge window reads them at the
	// first and last column.
	for rep := 0; rep < 2000; rep++ {
		var w [9]float64
		for i := range w {
			w[i] = pool[r.Intn(len(pool))]
		}
		for row := 0; row < 9; row += 3 {
			w[row] = w[row+1]
		}
		checkMedian9(t, w)
	}
}

func FuzzMedian9MatchesSort(f *testing.F) {
	f.Add(0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0)
	f.Add(0.5, 0.5, 0.5, 0.0, math.Copysign(0, -1), 0.0, 1.0, 1.0, 5e-324)
	f.Fuzz(func(t *testing.T, a, b, c, d, e, g, h, i, j float64) {
		checkMedian9(t, [9]float64{a, b, c, d, e, g, h, i, j})
	})
}

// Selection -----------------------------------------------------------------

func checkSelectKth(t *testing.T, v []float64, k int) {
	t.Helper()
	sorted := append([]float64(nil), v...)
	sort.Float64s(sorted)
	work := append([]float64(nil), v...)
	// == rather than bits, for the same ±0 reason; both callers feed it
	// values whose zeros carry no sign that survives (see wbWhitePatch).
	if got := selectKth(work, k); got != sorted[k] {
		t.Fatalf("selectKth(n=%d, k=%d) = %v, want %v", len(v), k, got, sorted[k])
	}
	sort.Float64s(work)
	for i := range sorted {
		if work[i] != sorted[i] {
			t.Fatalf("selectKth(n=%d, k=%d) lost an element", len(v), k)
		}
	}
}

func selectInput(r *frand.RNG, n int) []float64 {
	v := make([]float64, n)
	mode := r.Intn(5)
	for i := range v {
		switch mode {
		case 0:
			v[i] = float64(r.Intn(4)) // heavy ties
		case 1:
			v[i] = float64(i) // sorted
		case 2:
			v[i] = float64(n - i) // reversed
		case 3:
			v[i] = 0.25 // constant
		default:
			v[i] = r.NormFloat64()
		}
	}
	return v
}

func TestSelectKthMatchesSort(t *testing.T) {
	r := frand.New(16)
	for _, n := range []int{1, 2, 3, 8, 9, 10, 11, 64, 257, 1024, 4096} {
		for rep := 0; rep < 10; rep++ {
			v := selectInput(r, n)
			for _, k := range []int{0, n / 2, n * 99 / 100, n - 1, r.Intn(n)} {
				checkSelectKth(t, v, k)
			}
		}
	}
}

func FuzzSelectKthMatchesSort(f *testing.F) {
	f.Add(uint64(1), uint16(1), uint16(0))
	f.Add(uint64(2), uint16(300), uint16(150))
	f.Fuzz(func(t *testing.T, seed uint64, n, k uint16) {
		n = n%2048 + 1
		checkSelectKth(t, selectInput(frand.New(seed), int(n)), int(k%n))
	})
}

// Gamma table ---------------------------------------------------------------

// checkGamma runs one sample through the memoising Gamma twice (the second
// call reads what the first stored) and through plain math.Pow.
func checkGamma(t *testing.T, sc *Scratch, v, gamma float64) {
	t.Helper()
	want := math.Float64bits(math.Pow(clamp01(v), gamma))
	for pass := 0; pass < 2; pass++ {
		im := &Image{W: 1, H: 1, Pix: []float64{v, v, v}}
		sc.Gamma(im, gamma)
		for _, got := range im.Pix {
			if math.Float64bits(got) != want {
				t.Fatalf("Gamma(%v (%#x), %v) pass %d = %#x, want %#x",
					v, math.Float64bits(v), gamma, pass, math.Float64bits(got), want)
			}
		}
	}
}

func TestGammaTableMatchesPow(t *testing.T) {
	r := frand.New(17)
	for _, gamma := range []float64{0.88, 0.9, 0.92, 0.95, 1.05, 2.2, 0, -0.5, 100} {
		var sc Scratch
		for code := 0; code <= 65535; code++ {
			if code > 300 && code < 65000 && code%97 != 0 {
				continue
			}
			v := float64(code) / 65535
			checkGamma(t, &sc, v, gamma)                     // exact code: table
			checkGamma(t, &sc, math.Nextafter(v, 2), gamma)  // one ulp off: math.Pow
			checkGamma(t, &sc, math.Nextafter(v, -1), gamma) // (and a negative just below 0)
		}
		for _, v := range []float64{math.Copysign(0, -1), -3, 7, math.Inf(1), math.Inf(-1), 1e300, 5e-324, 0.5 / 65535} {
			checkGamma(t, &sc, v, gamma)
		}
		for i := 0; i < 2000; i++ {
			checkGamma(t, &sc, r.Float64(), gamma)
		}
		if len(sc.gammas) != 1 {
			t.Fatalf("gamma %v built %d tables", gamma, len(sc.gammas))
		}
	}
	// NaN in, NaN out, on both paths.
	var sc Scratch
	im := &Image{W: 1, H: 1, Pix: []float64{math.NaN(), 0.5, 1}}
	sc.Gamma(im, 0.9)
	if im.Pix[0] == im.Pix[0] {
		t.Fatalf("Gamma(NaN) = %v", im.Pix[0])
	}
}

func FuzzGammaTableMatchesPow(f *testing.F) {
	f.Add(uint16(1), int8(0), 0.9, 0.3)
	f.Add(uint16(65535), int8(1), 1.05, 1.5)
	f.Fuzz(func(t *testing.T, code uint16, ulps int8, gamma, free float64) {
		if gamma != gamma {
			return // NaN never equals itself: one table per call, still exact, not worth the memory here
		}
		var sc Scratch
		v := float64(code) / 65535
		checkGamma(t, &sc, v, gamma)
		for i := int8(0); i != ulps; {
			if ulps > 0 {
				v, i = math.Nextafter(v, 2), i+1
			} else {
				v, i = math.Nextafter(v, -1), i-1
			}
		}
		checkGamma(t, &sc, v, gamma)
		if free == free {
			checkGamma(t, &sc, free, gamma)
		}
	})
}

// sRGB ----------------------------------------------------------------------

// The Exp/Log form of SRGBEncode is math.Pow's own reduction: same bits.
func TestSRGBEncodeMatchesPow(t *testing.T) {
	check := func(v float64) {
		t.Helper()
		got, want := SRGBEncode(v), refSRGBEncode(v)
		if math.Float64bits(got) != math.Float64bits(want) && !(got != got && want != want) {
			t.Fatalf("SRGBEncode(%v (%#x)) = %#x, want %#x", v, math.Float64bits(v),
				math.Float64bits(got), math.Float64bits(want))
		}
	}
	for code := 0; code <= 65535; code++ {
		check(float64(code) / 65535)
	}
	knee := 0.0031308
	for _, v := range []float64{knee, math.Nextafter(knee, 1), math.Nextafter(knee, 0), 1, math.Nextafter(1, 0),
		math.Nextafter(1, 2), 2, 1e300, math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(), 0,
		math.Copysign(0, -1), 5e-324, -1} {
		check(v)
	}
	r := frand.New(20)
	for i := 0; i < 1<<20; i++ {
		check(r.Float64())
	}
}

// srgbFallsBack reports whether srgb8 takes the exact expression for v.
func srgbFallsBack(tab *srgbCutTable, v float64) bool {
	if !(v > 0 && v < 1) {
		return true
	}
	k := sort.Search(len(tab.band), func(k int) bool { return v < tab.band[k][1] })
	return k < len(tab.band) && v >= tab.band[k][0]
}

func checkSRGB8(t *testing.T, tab *srgbCutTable, v float64) {
	t.Helper()
	if got, want := tab.srgb8(v), srgb8Exact(v); got != want {
		t.Fatalf("srgb8(%v (%#x)) = %d, want %d", v, math.Float64bits(v), got, want)
	}
}

// srgb8 is to8(SRGBEncode(clamp01(v))) on every float64: around every cut
// and both edges of its guard band, at the special values, and on uniform
// samples.
func TestSRGB8MatchesEncode(t *testing.T) {
	tab := srgbCuts()
	const ulps = 2000
	for k, b := range tab.band {
		if b[0] >= b[1] || (k > 0 && tab.band[k-1][1] > b[0]) {
			t.Fatalf("guard band %d = %v is empty or overlaps the one before", k, b)
		}
		for _, at := range []float64{b[0], (b[0] + b[1]) / 2, b[1]} {
			lo, hi := math.Float64bits(at)-ulps, math.Float64bits(at)+ulps
			for bits := lo; bits <= hi; bits++ {
				checkSRGB8(t, tab, math.Float64frombits(bits))
			}
		}
	}
	for _, v := range []float64{0, math.Copysign(0, -1), 1, math.Nextafter(1, 0), math.Nextafter(1, 2), 5e-324,
		-5e-324, 2.2250738585072014e-308, 2.225073858507201e-308, -0.5, -1, 1.5, 1e300, math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(), 0.0031308, 0.5, 1.0 / srgbBuckets} {
		checkSRGB8(t, tab, v)
	}
	r := frand.New(21)
	n := 1 << 21
	if testing.Short() {
		n = 1 << 16
	}
	fallbacks := 0
	for i := 0; i < n; i++ {
		v := r.Float64()
		checkSRGB8(t, tab, v)
		if srgbFallsBack(tab, v) {
			fallbacks++
		}
	}
	t.Logf("%d of %d uniform samples fell back to the exact expression", fallbacks, n)
}

func FuzzSRGB8MatchesEncode(f *testing.F) {
	for _, v := range []float64{0, 0.5, 1, 0.0031308, 5e-324, -1, math.Inf(1), math.NaN()} {
		f.Add(math.Float64bits(v))
	}
	tab := srgbCuts()
	f.Fuzz(func(t *testing.T, bits uint64) {
		checkSRGB8(t, tab, math.Float64frombits(bits))
		// Raw bit patterns mostly land outside [0, 1]; fold one into it too.
		checkSRGB8(t, tab, math.Float64frombits(bits&(1<<52-1)|math.Float64bits(1))-1)
	})
}

// JPEG hand-off -------------------------------------------------------------

// Every decoder sample is an exact 16-bit code, which is what lets the
// vendor gamma memoise it.
func TestJPEGRoundtripYieldsExactCodes(t *testing.T) {
	im, err := JPEGRoundtrip(testScene(19, 13, 3), 85)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range im.Pix {
		if code := int(v*65535 + 0.5); float64(code)/65535 != v {
			t.Fatalf("sample %d = %v is not a 16-bit code", i, v)
		}
	}
}

func TestJPEGHandoffMatchesOracle(t *testing.T) {
	r := frand.New(18)
	var sc Scratch
	for _, sz := range [][2]int{{1, 1}, {7, 5}, {8, 8}, {15, 17}, {16, 16}, {33, 9}, {64, 64}} {
		for _, q := range []int{50, 85} {
			im := noisyImage(sz[0], sz[1], r)
			// Encoder side: the opaque RGBA encodes to the NRGBA's bytes.
			var viaNRGBA, viaRGBA bytes.Buffer
			if err := jpeg.Encode(&viaNRGBA, refToNRGBA(im), &jpeg.Options{Quality: q}); err != nil {
				t.Fatal(err)
			}
			rgba := (*Scratch)(nil).rgbaFor(im.W, im.H)
			im.fill8(rgba.Pix)
			if err := jpeg.Encode(&viaRGBA, rgba, &jpeg.Options{Quality: q}); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(viaNRGBA.Bytes(), viaRGBA.Bytes()) {
				t.Fatalf("%v q%d: RGBA and NRGBA encode to different streams", sz, q)
			}
			if !bytes.Equal(im.ToNRGBA().Pix, refToNRGBA(im).Pix) {
				t.Fatalf("%v: ToNRGBA moved", sz)
			}
			// Whole roundtrip, fresh and recycled, in place and not.
			want, err := refJPEGRoundtrip(im, q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := JPEGRoundtrip(im, q)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, "JPEGRoundtrip", got, want)
			inPlace := im.Clone()
			if err := sc.jpegRoundtrip(inPlace, inPlace, q, false); err != nil {
				t.Fatal(err)
			}
			sameBits(t, "jpegRoundtrip in place", inPlace, want)
			// The fused hand-off: linear in, the roundtrip of the sRGB plane out.
			if want, err = refJPEGRoundtrip(refToneTransform(im, ToneSRGBGamma), q); err != nil {
				t.Fatal(err)
			}
			fused := im.Clone()
			if err := sc.jpegRoundtrip(fused, fused, q, true); err != nil {
				t.Fatal(err)
			}
			sameBits(t, "jpegRoundtrip fused with sRGB", fused, want)
		}
	}
}

func TestFromGoImageMatchesOracle(t *testing.T) {
	r := frand.New(19)
	fill := func(p []uint8) {
		for i := range p {
			p[i] = uint8(r.Intn(256))
		}
	}
	var srcs []image.Image
	for _, ratio := range []image.YCbCrSubsampleRatio{image.YCbCrSubsampleRatio420, image.YCbCrSubsampleRatio444,
		image.YCbCrSubsampleRatio422, image.YCbCrSubsampleRatio440} {
		for _, rect := range []image.Rectangle{image.Rect(0, 0, 1, 1), image.Rect(0, 0, 7, 5), image.Rect(3, 2, 20, 13)} {
			ycc := image.NewYCbCr(rect, ratio)
			fill(ycc.Y)
			fill(ycc.Cb)
			fill(ycc.Cr)
			srcs = append(srcs, ycc)
			if rect.Dx() > 4 {
				// A view with non-zero origin into a larger plane.
				srcs = append(srcs, ycc.SubImage(image.Rect(rect.Min.X+1, rect.Min.Y+2, rect.Max.X-1, rect.Max.Y-1)))
			}
		}
	}
	// The generic path: types the fast path does not know.
	nrgba := image.NewNRGBA(image.Rect(2, 1, 9, 8))
	fill(nrgba.Pix)
	gray := image.NewGray16(image.Rect(0, 0, 5, 3))
	fill(gray.Pix)
	srcs = append(srcs, nrgba, gray)
	for _, src := range srcs {
		sameBits(t, "FromGoImage", FromGoImage(src), refFromGoImage(src))
	}
}

func FuzzFromGoImageMatchesOracle(f *testing.F) {
	f.Add(uint64(1), uint8(7), uint8(5), uint8(0))
	f.Add(uint64(2), uint8(16), uint8(16), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, w, h, ratio uint8) {
		r := frand.New(seed)
		rect := image.Rect(int(seed%3), int(seed%5), int(seed%3)+int(w%40)+1, int(seed%5)+int(h%40)+1)
		ycc := image.NewYCbCr(rect, image.YCbCrSubsampleRatio(ratio%6))
		for _, p := range [][]uint8{ycc.Y, ycc.Cb, ycc.Cr} {
			for i := range p {
				p[i] = uint8(r.Intn(256))
			}
		}
		sameBits(t, "FromGoImage", FromGoImage(ycc), refFromGoImage(ycc))
	})
}

// Empty images --------------------------------------------------------------

// The statistics stages index or divide by W*H; an empty image comes back
// unchanged instead of panicking or turning into NaN.
func TestEmptyImageStagesAreNoOps(t *testing.T) {
	for _, im := range []*Image{NewImage(0, 0), NewImage(0, 4), NewImage(3, 0)} {
		if m := im.ChannelMeans(); m != [3]float64{} {
			t.Fatalf("ChannelMeans of empty image = %v", m)
		}
		for _, out := range []*Image{
			WhiteBalance(im, WBWhitePatch), WhiteBalance(im, WBGrayWorld), ToneTransform(im, ToneSRGBGammaEq),
		} {
			if out.W != im.W || out.H != im.H || len(out.Pix) != 0 {
				t.Fatalf("stage changed an empty %dx%d image into %dx%d", im.W, im.H, out.W, out.H)
			}
		}
	}
}
