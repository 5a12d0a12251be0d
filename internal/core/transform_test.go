package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"heteroswitch/internal/dataset"
	"heteroswitch/internal/device"
	"heteroswitch/internal/frand"
	"heteroswitch/internal/scene"
	"heteroswitch/internal/tensor"
)

// refRandomWBGamma is RandomWBGamma as two passes over math.Pow: the gains,
// then the clamp and the power. Its bits are the transform's contract.
func refRandomWBGamma(wbDeg, gammaDeg float64) TransformFunc {
	return func(x *tensor.Tensor, rng *frand.RNG) {
		if x.NDim() != 3 {
			return
		}
		c, hw := x.Dim(0), x.Dim(1)*x.Dim(2)
		d := x.Data()
		for ch := 0; ch < c; ch++ {
			gain := float32(rng.Uniform(1-wbDeg, 1+wbDeg))
			seg := d[ch*hw : (ch+1)*hw]
			for i := range seg {
				seg[i] *= gain
			}
		}
		gamma := rng.Uniform(1-gammaDeg, 1+gammaDeg)
		if gamma < 0.05 {
			gamma = 0.05
		}
		refGammaSweep(d, gamma)
	}
}

// refGammaOnly is GammaOnly over math.Pow.
func refGammaOnly(degree float64) TransformFunc {
	return func(x *tensor.Tensor, rng *frand.RNG) {
		gamma := rng.Uniform(1-degree, 1+degree)
		if gamma < 0.05 {
			gamma = 0.05
		}
		refGammaSweep(x.Data(), gamma)
	}
}

// refGammaSweep is the clamp and math.Pow loop the reference transforms end in.
func refGammaSweep(d []float32, gamma float64) {
	for i, v := range d {
		if v < 0 {
			v = 0
		} else if v > 1 {
			v = 1
		}
		d[i] = float32(math.Pow(float64(v), gamma))
	}
}

// powTies are near ties found by search: math.Pow's float64 result lies a few
// ulps from a float32 rounding boundary, and in 20 of the 22 powFast's value
// lies on the other side of it, so only the guard band keeps the sweep exact.
var powTies = []struct {
	bits  uint32
	gamma float64
}{
	{0x00ef16e0, 0.42360134896206064},
	{0x00a367ab, 0.6675442839211545},
	{0x00e387f3, 0.2569023370742798},
	{0x008b0ab1, 0.6667925348225364},
	{0x00a31935, 0.3159941810900657},
	{0x00c83f12, 0.7778072243221282},
	{0x00d664bf, 0.622312033186563},
	{0x00c27d99, 0.9710909463081113},
	{0x00935030, 0.7891792189116015},
	{0x00a20f7a, 0.83704627440632},
	{0x00d07ece, 0.5326301423405091},
	{0x3f427674, 1.8949869053213122},
	{0x3f6be6da, 0.23711156168906872},
	{0x3f4fe897, 0.988395890487854},
	{0x3e506ea0, 1.5522494335094426},
	{0x3b0e6c19, 1.3223849410344577},
	{0x3ce7d59f, 0.1784210164926856},
	{0x3b30e857, 1.4825469255447388},
	{0x3d5fa005, 0.44581500713767985},
	{0x3c79a2dd, 1.8269649366394305},
	{0x3af2793c, 0.2881747525643295},
	{0x3a86ecb2, 0.5114076688314839},
}

// specialValues are every class of input the clamp and the power meet:
// values below 0 and above 1, ±0, NaNs with payloads (one signalling),
// ±Inf, subnormals, float32's smallest normal, and values next to 1.
var specialValues = []float32{
	-1, -0.5, -1e-30, float32(math.Copysign(0, -1)), 0, 1, 1.5, 2, 1e30,
	float32(math.NaN()), math.Float32frombits(0x7fc12345), math.Float32frombits(0xffc00001), math.Float32frombits(0x7f800001),
	float32(math.Inf(1)), float32(math.Inf(-1)),
	math.SmallestNonzeroFloat32, 1e-40, math.Float32frombits(0x007fffff), -1e-40,
	math.Float32frombits(0x00800000), math.Float32frombits(0x3f7fffff), math.Float32frombits(0x3f800001),
	0.5, 0.25, 1.0 / 255, 128.0 / 255, 254.0 / 255,
}

// capturedImage is one 3×32×32 sample as the FL harnesses train on it: an
// ImageNet-12 scene photographed and developed by the first device profile.
func capturedImage(tb testing.TB) *tensor.Tensor {
	tb.Helper()
	scenes := scene.NewImageNet12(64).RenderSet(1, frand.New(42))
	ds, err := dataset.Capture(scenes[:1], device.Profiles()[0], 0, dataset.ModeProcessed, 32, 12, frand.New(43))
	if err != nil {
		tb.Fatal(err)
	}
	return ds.Samples[0].X
}

// wbGammaFallbacks replays ops calls of RandomWBGamma(wbDeg, gammaDeg) on the
// c-channel image src with rng's draws and counts the elements its sweep hands
// to math.Pow.
func wbGammaFallbacks(src []float32, c int, wbDeg, gammaDeg float64, rng *frand.RNG, ops int) int {
	hw, n := len(src)/c, 0
	gains := make([]float32, c)
	for range ops {
		for ch := range gains {
			gains[ch] = float32(rng.Uniform(1-wbDeg, 1+wbDeg))
		}
		gamma := drawGamma(gammaDeg, rng)
		for i, v := range src {
			if _, ok := powFast(clamp01(v*gains[i/hw]), gamma); !ok {
				n++
			}
		}
	}
	return n
}

// requireSameBits fails t at the first element whose bits differ.
func requireSameBits(t *testing.T, name string, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d is %#x, math.Pow gives %#x", name, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
}

// TestTransformMatchesReference holds the ISP transformation to its
// math.Pow bits: the fixed-γ sweep on a captured image, on every special
// input and on a random sweep of uniform values, raw bit patterns, k/255 and
// values near 1; the near ties; and RandomWBGamma and GammaOnly
// against their reference loops, draws included, at the appendix's WB degree
// and at 0.9.
func TestTransformMatchesReference(t *testing.T) {
	captured := capturedImage(t).Data()
	r := frand.New(11)
	random := make([]float32, 1<<14)
	for i := range random {
		switch i % 4 {
		case 0:
			random[i] = float32(r.Float64())
		case 1:
			random[i] = math.Float32frombits(uint32(r.Uint64()))
		case 2:
			random[i] = float32(r.Intn(256)) / 255
		default:
			random[i] = 1 - float32(r.Intn(1<<12))*0x1p-24
		}
	}
	gammas := []float64{0.05, 0.5, 1, 1.9, 2, 2.5, 0.0, -1, math.NaN()}
	for range 24 {
		gammas = append(gammas, r.Uniform(0.05, 1.9))
	}
	calls, fallbacks := 0, 0
	for _, in := range []struct {
		name string
		d    []float32
	}{{"captured", captured}, {"special", specialValues}, {"random", random}} {
		for _, gamma := range gammas {
			got, want := slices.Clone(in.d), slices.Clone(in.d)
			powSweep(got, 1, gamma)
			refGammaSweep(want, gamma)
			requireSameBits(t, fmt.Sprintf("%s γ=%v", in.name, gamma), got, want)
			if gamma > 0 && gamma <= 2 && in.name != "special" {
				for _, v := range in.d {
					if _, ok := powFast(clamp01(v), gamma); !ok {
						fallbacks++
					}
				}
				calls += len(in.d)
			}
		}
	}
	t.Logf("fixed-γ sweeps: %d of %d elements fell back to math.Pow (%.2g)", fallbacks, calls, float64(fallbacks)/float64(calls))

	for _, tie := range powTies {
		got := []float32{math.Float32frombits(tie.bits)}
		want := float32(math.Pow(float64(got[0]), tie.gamma))
		if powSweep(got, 1, tie.gamma); math.Float32bits(got[0]) != math.Float32bits(want) {
			t.Errorf("%#x^%v swept to %#x, math.Pow gives %#x", tie.bits, tie.gamma, math.Float32bits(got[0]), math.Float32bits(want))
		}
	}

	img := capturedImage(t)
	for _, wb := range []float64{0.001, 0.9} {
		for seed := uint64(1); seed <= 8; seed++ {
			got, want := img.Clone(), img.Clone()
			RandomWBGamma(wb, 0.9)(got, frand.New(seed))
			refRandomWBGamma(wb, 0.9)(want, frand.New(seed))
			requireSameBits(t, fmt.Sprintf("RandomWBGamma(%v, 0.9) seed %d", wb, seed), got.Data(), want.Data())
		}
		n := 64
		fb := wbGammaFallbacks(img.Data(), 3, wb, 0.9, frand.New(1), n)
		t.Logf("RandomWBGamma(%v, 0.9) on the captured image: %d of %d elements fell back (%.2g)", wb, fb, n*img.Size(), float64(fb)/float64(n*img.Size()))
	}
	for _, deg := range []float64{0, 0.3, 0.9, 1.5} {
		for seed := uint64(1); seed <= 4; seed++ {
			got, want := img.Clone(), img.Clone()
			GammaOnly(deg)(got, frand.New(seed))
			refGammaOnly(deg)(want, frand.New(seed))
			requireSameBits(t, fmt.Sprintf("GammaOnly(%v) seed %d", deg, seed), got.Data(), want.Data())
		}
	}
}

// FuzzPowMatchesMathPow holds powFast's certificate on any float32 bit
// pattern and any γ — a value it reports ok rounds to
// float32(math.Pow(float64(v), γ)) — and the transformation's sweep to
// refGammaSweep's bits there. The seeds are the near ties and the special
// values at the degrees' corners.
func FuzzPowMatchesMathPow(f *testing.F) {
	for _, tie := range powTies {
		f.Add(tie.bits, tie.gamma)
	}
	for i, v := range specialValues {
		f.Add(math.Float32bits(v), []float64{0.05, 0.5, 1, 1.9, 2, 3}[i%6])
	}
	fallbacks := 0
	for _, tie := range powTies {
		if _, ok := powFast(math.Float32frombits(tie.bits), tie.gamma); !ok {
			fallbacks++
		}
	}
	f.Logf("%d of %d near ties fall back to math.Pow", fallbacks, len(powTies))
	f.Fuzz(func(t *testing.T, bits uint32, gamma float64) {
		v := math.Float32frombits(bits)
		want := float32(math.Pow(float64(v), gamma))
		if fv, ok := powFast(v, gamma); ok && math.Float32bits(float32(fv)) != math.Float32bits(want) {
			t.Fatalf("powFast(%#x, %v) certified %#x, math.Pow gives %#x", bits, gamma, math.Float32bits(float32(fv)), math.Float32bits(want))
		}
		got, ref := []float32{v}, []float32{v}
		powSweep(got, 1, gamma)
		refGammaSweep(ref, gamma)
		if math.Float32bits(got[0]) != math.Float32bits(ref[0]) {
			t.Fatalf("sweep of %#x at γ=%v gave %#x, the reference %#x", bits, gamma, math.Float32bits(got[0]), math.Float32bits(ref[0]))
		}
	})
}

// TestPowFastErrorBudget checks the premise of powFast's certificate: on
// normal v in (0, 1) and γ in (0, 2], wherever v^γ is at least 2^-124, the
// fast value is within 2^-44 (relative) of math.Pow's float64 result. On
// v in [½, 1) every rounding of either is below 2^-52 (|log2 v| < 1), so
// there the two must agree to 2^-48: a polynomial short of a term, whose
// truncation error grows to 2^-46, shows there first.
func TestPowFastErrorBudget(t *testing.T) {
	r := frand.New(12)
	var worst, worstTop float64
	for range 64 {
		gamma := r.Uniform(0.05, 2)
		for i := range 4096 {
			var v float32
			switch i % 3 {
			case 0:
				v = float32(r.Float64())
			case 1:
				v = math.Float32frombits(0x00800000 + uint32(r.Uint64()>>40)%(0x3f800000-0x00800000))
			default:
				v = math.Float32frombits(0x3f000000 + uint32(r.Uint64()>>41))
			}
			p := math.Pow(float64(v), gamma)
			if v < 0x1p-126 || p < 0x1p-124 {
				continue
			}
			f, _ := powFast(v, gamma)
			d := math.Abs(f-p) / p
			worst = max(worst, d)
			if v >= 0.5 {
				worstTop = max(worstTop, d)
			}
		}
	}
	t.Logf("worst relative distance from math.Pow: 2^%.1f, on [½, 1): 2^%.1f", math.Log2(worst), math.Log2(worstTop))
	if worst > 0x1p-44 {
		t.Fatalf("powFast is 2^%.1f from math.Pow, beyond the 2^-44 its certificate assumes", math.Log2(worst))
	}
	if worstTop > 0x1p-48 {
		t.Fatalf("powFast is 2^%.1f from math.Pow on [½, 1), beyond 2^-48", math.Log2(worstTop))
	}
}

// BenchmarkTransform times RandomWBGamma at the appendix's degrees against
// its math.Pow reference, a fresh copy of the input per op, on a captured
// image and on perfbook's probe input as its probe sees it after the first
// call: Randn(0.25) clamped to [0, 1], so half its pixels are exact zeros.
func BenchmarkTransform(b *testing.B) {
	probe := tensor.Randn(frand.New(42), 0.25, 3, 32, 32)
	for i, v := range probe.Data() {
		probe.Data()[i] = clamp01(v)
	}
	inputs := []struct {
		name string
		x    *tensor.Tensor
	}{
		{"captured", capturedImage(b)},
		{"probe", probe},
	}
	arms := []struct {
		name string
		tf   TransformFunc
	}{
		{"new", RandomWBGamma(0.001, 0.9)},
		{"ref", refRandomWBGamma(0.001, 0.9)},
	}
	for _, in := range inputs {
		for _, arm := range arms {
			b.Run(in.name+"/"+arm.name, func(b *testing.B) {
				src := in.x.Data()
				x := in.x.Clone()
				rng := frand.New(7)
				replay := *rng
				for b.Loop() {
					copy(x.Data(), src)
					arm.tf(x, rng)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(src)), "ns/pixel")
				if arm.name == "new" {
					ops := min(b.N, 64)
					b.ReportMetric(float64(wbGammaFallbacks(src, 3, 0.001, 0.9, &replay, ops))/float64(ops), "fallbacks/op")
				}
			})
		}
	}
}
