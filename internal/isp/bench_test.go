package isp

import (
	"fmt"
	"testing"

	"heteroswitch/internal/frand"
)

// benchFrame is a 64×64 (high-tier) RAW frame with sensor-like noise, so the
// data-dependent stages (FBDD's impulse test, BayesShrink) do real work.
func benchFrame() *RAW {
	raw := Mosaic(testScene(64, 64, 71), RGGB)
	r := frand.New(72)
	for i, v := range raw.Pix {
		raw.Pix[i] = clamp01(v + 0.03*r.NormFloat64())
	}
	return raw
}

// BenchmarkISPStage times each of the 18 Table-3 cells on its own, on the
// scratch path the capture loops run: the stage's input is the Baseline
// pipeline's output of the stages before it. In-place stages pay one plane
// copy per iteration to get a fresh input. The compress cells time the plain
// JPEG roundtrip; the last cell times the fused sRGB-to-JPEG hand-off that
// Process runs for the Baseline's tone and compress stages.
func BenchmarkISPStage(b *testing.B) {
	raw := benchFrame()
	base := Baseline()
	demosaiced := Demosaic(raw, base.Demosaic)
	denoised := Denoise(demosaiced, base.Denoise)
	balanced := WhiteBalance(denoised, base.WB)
	mapped := GamutMap(balanced, base.Gamut)
	toned := ToneTransform(mapped, base.Tone)

	var sc Scratch
	inPlace := func(src *Image, stage func(*Image)) func() {
		return func() {
			im := sc.image(src.W, src.H)
			copy(im.Pix, src.Pix)
			stage(im)
		}
	}
	bench := func(name string, run func()) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				sc.Reset()
				run()
			}
		})
	}
	for stage := StageDemosaic; stage < NumStages; stage++ {
		for opt := 0; opt <= 2; opt++ {
			p, err := base.Option(stage, opt)
			if err != nil {
				b.Fatal(err)
			}
			var name string
			var run func()
			switch stage {
			case StageDemosaic:
				name, run = p.Demosaic.String(), func() { sc.demosaic(raw, p.Demosaic) }
			case StageDenoise:
				name, run = p.Denoise.String(), func() { sc.denoise(demosaiced, p.Denoise) }
			case StageWB:
				name, run = p.WB.String(), inPlace(denoised, func(im *Image) { sc.whiteBalance(im, p.WB) })
			case StageGamut:
				name, run = p.Gamut.String(), inPlace(balanced, func(im *Image) { gamutMap(im, p.Gamut) })
			case StageTone:
				name, run = p.Tone.String(), inPlace(mapped, func(im *Image) { toneTransform(im, p.Tone) })
			default:
				name, run = p.Compress.String(), inPlace(toned, func(im *Image) {
					if p.Compress == CompressNone {
						return
					}
					if err := sc.jpegRoundtrip(im, im, p.Compress.quality(), false); err != nil {
						b.Fatal(err)
					}
				})
			}
			bench(fmt.Sprintf("%v/%s", stage, name), run)
		}
	}
	// The Baseline's tone and compress stages as Process runs them: one
	// hand-off from the linear plane straight to JPEG bytes.
	bench("tone+compress/srgb-gamma→jpeg-q85", inPlace(mapped, func(im *Image) {
		if err := sc.jpegRoundtrip(im, im, base.Compress.quality(), true); err != nil {
			b.Fatal(err)
		}
	}))
}
