package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"

	"heteroswitch/internal/dataset"
	"heteroswitch/internal/device"
	"heteroswitch/internal/flair"
	"heteroswitch/internal/frand"
	"heteroswitch/internal/isp"
	"heteroswitch/internal/scene"
)

// The capture path is the paper's subject: system-induced heterogeneity IS
// the bytes these functions produce. The digests below were recorded on the
// code before the capture path was optimised and must never change — a
// faster capture that moves one bit of one sample has changed the experiment.

// sampleDigest hashes math.Float32bits of every sample of the datasets, in
// order, with each sample's label and device tag.
func sampleDigest(sets ...*dataset.Dataset) string {
	h := sha256.New()
	var b [4]byte
	for _, ds := range sets {
		for _, s := range ds.Samples {
			binary.LittleEndian.PutUint32(b[:], uint32(int32(s.Label)))
			h.Write(b[:])
			binary.LittleEndian.PutUint32(b[:], uint32(int32(s.Device)))
			h.Write(b[:])
			for _, v := range s.X.Data() {
				binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
				h.Write(b[:])
			}
			for _, v := range s.Multi {
				binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
				h.Write(b[:])
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// deviceDataDigest renders one line per Table-1 device: train then test.
func deviceDataDigest(dd *DeviceData) string {
	var sb strings.Builder
	for i, p := range dd.Profiles {
		fmt.Fprintf(&sb, "%s %s\n", p.Name, sampleDigest(dd.Train[i], dd.Test[i]))
	}
	return sb.String()
}

var pinnedDeviceData = map[string]string{
	"seed42/processed": `Pixel5 0d4187de987ea250
Pixel2 080fd214422813b1
Nexus5X 499c9e3d0dc7ef8a
VELVET 3fdab4dc53693c11
G7 7c60180862ee520b
G4 9a9faa3dd863a927
S22 92a7e02515f13142
S9 74d28a75047d5a9f
S6 b5466cc3ed02a4f7
`,
	"seed42/raw": `Pixel5 9c1156838f9e978e
Pixel2 afe29f352c8d2ec8
Nexus5X 9ff1bd17a339af41
VELVET 08141f1d0ea63643
G7 1e601af864c79d2d
G4 9142be9dc168f3d5
S22 6fa38bbdc4f87230
S9 bffae3020cd994f3
S6 6987011f9898002a
`,
	"seed7/processed": `Pixel5 40204ec3be097f0e
Pixel2 44db3420b2b27501
Nexus5X 1b2270bac024c086
VELVET 3b929ef18e12ba80
G7 66c70a9724dc68b2
G4 7acd4b7b67c5fa66
S22 d089359c04f7c479
S9 ee55fff2814d9069
S6 c554140473ff182f
`,
	"seed7/raw": `Pixel5 349df7dd083ac235
Pixel2 789514df023ae6ca
Nexus5X 51971b5703b99f14
VELVET 77fd4078c92942f2
G7 bdc7dda4c8ed18da
G4 dc2c677d1d85c884
S22 6d377f61bbe452ce
S9 aa7f34c80df0d138
S6 81467ddd4bfd9b50
`,
}

func TestBuildDeviceDataDigestPinned(t *testing.T) {
	seeds := []uint64{42, 7}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		for _, mode := range []dataset.CaptureMode{dataset.ModeProcessed, dataset.ModeRAW} {
			name := fmt.Sprintf("seed%d/%s", seed, map[dataset.CaptureMode]string{
				dataset.ModeProcessed: "processed", dataset.ModeRAW: "raw"}[mode])
			for _, workers := range []int{1, 2, 4} {
				opts := DefaultOptions()
				opts.Seed, opts.Workers = seed, workers
				dd, err := BuildDeviceData(opts, 2, 1, mode)
				if err != nil {
					t.Fatal(err)
				}
				if got := deviceDataDigest(dd); got != pinnedDeviceData[name] {
					t.Errorf("%s workers=%d: captured bytes moved\n got:\n%s want:\n%s",
						name, workers, got, pinnedDeviceData[name])
				}
			}
		}
	}
}

// pinnedTable3 holds one digest per Table-3 cell (stage × option) on the
// mid-tier S9 sensor, so the variants the nine profiles never select
// (ProPhoto gamut, q50 with FBDD, …) are pinned as well.
var pinnedTable3 = `demosaic/ppg 41e97d637b0971c4
demosaic/binning edc82cae4c0f80ac
demosaic/ahd 18ea43cfcbef85ab
denoise/fbdd 41e97d637b0971c4
denoise/none 51c34333bf755954
denoise/wavelet-bayesshrink 557758d1b0f1b401
white-balance/gray-world 41e97d637b0971c4
white-balance/none af7364f38b20798d
white-balance/white-patch 17298256e21eca55
gamut/srgb 41e97d637b0971c4
gamut/none 41e97d637b0971c4
gamut/prophoto 138fa91543b8f9d9
tone/srgb-gamma 41e97d637b0971c4
tone/none 28c66adbc0917982
tone/srgb-gamma+equalize 303eef6d7029addd
compress/jpeg-q85 41e97d637b0971c4
compress/none 89a0351c7f9354bb
compress/jpeg-q50 e1fa5504ce8cad49
`

func TestTable3CellDigestsPinned(t *testing.T) {
	gen := scene.NewImageNet12(64)
	scenes := gen.RenderSet(1, frand.New(42).SplitNamed("table3-scenes"))
	s9, err := device.ByName("S9")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for stage := isp.StageDemosaic; stage < isp.NumStages; stage++ {
		for opt := 0; opt <= 2; opt++ {
			pipe, err := isp.Baseline().Option(stage, opt)
			if err != nil {
				t.Fatal(err)
			}
			ds, err := dataset.CaptureWithPipeline(scenes, s9, 7, pipe, 32, gen.NumClasses(), frand.New(42^0xbbbb))
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&sb, "%v/%s %s\n", stage, stageOptionName(pipe, stage), sampleDigest(ds))
		}
	}
	if got := sb.String(); got != pinnedTable3 {
		t.Errorf("Table-3 cell bytes moved\n got:\n%s want:\n%s", got, pinnedTable3)
	}
}

// pinnedRandom pins device.Random profiles, which — unlike the nine Table-1
// profiles — reach CompressNone and ToneNone, where the vendor tuning runs
// on continuous values instead of JPEG-decoder codes.
var pinnedRandom = `rand-00 ISP{ahd|fbdd|white-patch|srgb|srgb-gamma|jpeg-q50} 0a3dafe5fdd36453
rand-01 ISP{binning|none|none|srgb|none|jpeg-q50} 233c0576bf04b083
rand-02 ISP{ahd|none|none|none|none|jpeg-q85} 78dfbbd969969743
rand-03 ISP{ppg|none|gray-world|srgb|srgb-gamma+equalize|jpeg-q50} 0bf290dbd4d22332
rand-04 ISP{binning|fbdd|none|srgb|srgb-gamma|jpeg-q85} 6f1174bd3d53d30d
rand-05 ISP{ahd|wavelet-bayesshrink|white-patch|none|srgb-gamma|jpeg-q50} 3de3e256e4687632
rand-06 ISP{ahd|fbdd|white-patch|none|srgb-gamma+equalize|jpeg-q85} 8d0cc3a57fe57019
rand-07 ISP{ppg|none|gray-world|none|srgb-gamma|none} 5f875ee2802c3956
rand-08 ISP{ahd|none|none|prophoto|none|jpeg-q50} 0950d7e75d353175
rand-09 ISP{ahd|none|gray-world|prophoto|none|jpeg-q50} 430a0fd9d0872614
rand-10 ISP{ahd|wavelet-bayesshrink|gray-world|none|srgb-gamma+equalize|none} 902126a2fc0b510e
rand-11 ISP{ahd|none|white-patch|srgb|none|none} da11512438036f3f
`

func TestRandomDeviceDigestsPinned(t *testing.T) {
	gen := scene.NewImageNet12(64)
	scenes := gen.RenderSet(1, frand.New(7).SplitNamed("random-scenes"))
	rng := frand.New(7 ^ 0x0dd)
	var sb strings.Builder
	var noCompress, noTone bool
	for i := 0; i < 12; i++ {
		prof := device.Random(rng.Split(), fmt.Sprintf("rand-%02d", i))
		noCompress = noCompress || prof.ISP.Compress == isp.CompressNone
		noTone = noTone || prof.ISP.Tone == isp.ToneNone
		ds, err := dataset.Capture(scenes, prof, 100+i, dataset.ModeProcessed, 32, gen.NumClasses(), rng.Split())
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sb, "%s %v %s\n", prof.Name, prof.ISP, sampleDigest(ds))
	}
	if !noCompress || !noTone {
		t.Fatalf("random profiles must reach CompressNone (%v) and ToneNone (%v)", noCompress, noTone)
	}
	if got := sb.String(); got != pinnedRandom {
		t.Errorf("random-device bytes moved\n got:\n%s want:\n%s", got, pinnedRandom)
	}
}

// pinnedFlair pins the FLAIR substitute, which interleaves scene generation
// and capture on one RNG stream through Profile.CaptureProcessed directly.
const pinnedFlair = "e8a84c86dec7e940"

func TestFlairDigestPinned(t *testing.T) {
	fed, err := flair.Build(flair.Config{NumDeviceTypes: 4, SamplesPerDevice: 3, TestPerDevice: 2, Classes: 12, OutRes: 32, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	var sets []*dataset.Dataset
	for d := range fed.Devices {
		sets = append(sets, fed.Train[d], fed.Test[d])
	}
	if got := sampleDigest(sets...); got != pinnedFlair {
		t.Errorf("FLAIR-substitute bytes moved: got %s want %s", got, pinnedFlair)
	}
}
