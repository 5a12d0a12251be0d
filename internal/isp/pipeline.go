package isp

import "fmt"

// Stage identifies one of the six ISP stages (Table 3 rows).
type Stage int

// The six ISP stages, in processing order.
const (
	StageDemosaic Stage = iota
	StageDenoise
	StageWB
	StageGamut
	StageTone
	StageCompress
	NumStages
)

// String implements fmt.Stringer.
func (s Stage) String() string {
	switch s {
	case StageDemosaic:
		return "demosaic"
	case StageDenoise:
		return "denoise"
	case StageWB:
		return "white-balance"
	case StageGamut:
		return "gamut"
	case StageTone:
		return "tone"
	case StageCompress:
		return "compress"
	}
	return fmt.Sprintf("Stage(%d)", int(s))
}

// Pipeline is a full ISP configuration: one algorithm per stage.
type Pipeline struct {
	Demosaic DemosaicAlg
	Denoise  DenoiseAlg
	WB       WBAlg
	Gamut    GamutAlg
	Tone     ToneAlg
	Compress CompressAlg
}

// Baseline returns the paper's Baseline column of Table 3: PPG demosaicing,
// FBDD denoising, gray-world white balance, sRGB gamut, sRGB gamma tone,
// JPEG quality 85.
func Baseline() Pipeline {
	return Pipeline{
		Demosaic: DemosaicPPG,
		Denoise:  DenoiseFBDD,
		WB:       WBGrayWorld,
		Gamut:    GamutSRGB,
		Tone:     ToneSRGBGamma,
		Compress: CompressJPEG85,
	}
}

// Option selects Baseline (0), Option 1 (1) or Option 2 (2) of Table 3 for
// a single stage, returning a modified copy. It returns an error for
// unknown stages or option indices.
func (p Pipeline) Option(stage Stage, option int) (Pipeline, error) {
	if option < 0 || option > 2 {
		return p, fmt.Errorf("isp: option %d out of range", option)
	}
	switch stage {
	case StageDemosaic:
		p.Demosaic = []DemosaicAlg{DemosaicPPG, DemosaicBinning, DemosaicAHD}[option]
	case StageDenoise:
		p.Denoise = []DenoiseAlg{DenoiseFBDD, DenoiseNone, DenoiseWavelet}[option]
	case StageWB:
		p.WB = []WBAlg{WBGrayWorld, WBNone, WBWhitePatch}[option]
	case StageGamut:
		p.Gamut = []GamutAlg{GamutSRGB, GamutNone, GamutProPhoto}[option]
	case StageTone:
		p.Tone = []ToneAlg{ToneSRGBGamma, ToneNone, ToneSRGBGammaEq}[option]
	case StageCompress:
		p.Compress = []CompressAlg{CompressJPEG85, CompressNone, CompressJPEG50}[option]
	default:
		return p, fmt.Errorf("isp: unknown stage %v", stage)
	}
	return p, nil
}

// String renders the pipeline configuration compactly.
func (p Pipeline) String() string {
	return fmt.Sprintf("ISP{%v|%v|%v|%v|%v|%v}", p.Demosaic, p.Denoise, p.WB, p.Gamut, p.Tone, p.Compress)
}

// Process runs a RAW frame through the full pipeline, producing the
// display-referred image a device's camera app would save.
func (p Pipeline) Process(raw *RAW) (*Image, error) { return (*Scratch)(nil).Process(p, raw) }

// Process is Pipeline.Process on scratch storage. Demosaic and the
// neighbourhood denoisers write fresh planes; every later stage is pointwise
// (or, for JPEG, reads all of the image before writing any of it) and works
// in place on the plane it is handed. Plain sRGB gamma followed by JPEG runs
// as one step: the hand-off encodes the linear plane straight to bytes.
func (s *Scratch) Process(p Pipeline, raw *RAW) (*Image, error) {
	im := s.demosaic(raw, p.Demosaic)
	im = s.denoise(im, p.Denoise)
	s.whiteBalance(im, p.WB)
	gamutMap(im, p.Gamut)
	fused := p.Tone == ToneSRGBGamma && p.Compress != CompressNone
	if !fused {
		toneTransform(im, p.Tone)
	}
	if p.Compress != CompressNone {
		if err := s.jpegRoundtrip(im, im, p.Compress.quality(), fused); err != nil {
			return nil, err
		}
	}
	im.Clamp()
	return im, nil
}

// ProcessRAWOnly converts a RAW frame with the minimal bilinear demosaic and
// no further processing — the "RAW data" condition of Section 3.3, which
// exposes the sensor's uncorrected output to the model.
func ProcessRAWOnly(raw *RAW) *Image { return (*Scratch)(nil).ProcessRAWOnly(raw) }

// ProcessRAWOnly is the package-level ProcessRAWOnly on scratch storage.
func (s *Scratch) ProcessRAWOnly(raw *RAW) *Image {
	im := s.demosaicBilinear(raw)
	im.Clamp()
	return im
}
