// Command ispdemo renders one scene through every Table-1 device and every
// ISP stage option, writing PNGs that visualize system-induced data
// heterogeneity — the imaging counterpart of the paper's Figure 1.
//
// Usage:
//
//	ispdemo -out ./ispdemo-out [-class 4] [-seed 42]
//
// Output layout:
//
//	<out>/scene.png                 the latent scene
//	<out>/devices/<name>.png        per-device developed captures
//	<out>/devices/<name>_raw.png    per-device RAW (demosaic-only) renditions
//	<out>/stages/<stage>_opt<n>.png baseline S9 sensor, one stage switched
package main

import (
	"flag"
	"fmt"
	"image/png"
	"os"
	"path/filepath"

	"heteroswitch/internal/device"
	"heteroswitch/internal/frand"
	"heteroswitch/internal/isp"
	"heteroswitch/internal/scene"
)

func main() {
	var (
		out   = flag.String("out", "ispdemo-out", "output directory")
		class = flag.Int("class", 4, "scene class (0-11)")
		seed  = flag.Uint64("seed", 42, "random seed")
	)
	flag.Parse()

	gen := scene.NewImageNet12(64)
	if *class < 0 || *class >= gen.NumClasses() {
		fatal(fmt.Errorf("class %d out of range [0,%d)", *class, gen.NumClasses()))
	}
	sc := gen.Render(*class, frand.New(*seed))

	mustMkdir(filepath.Join(*out, "devices"))
	mustMkdir(filepath.Join(*out, "stages"))
	writePNG(filepath.Join(*out, "scene.png"), sc)
	fmt.Printf("scene: class %d (%s)\n", *class, gen.ClassName(*class))

	for i, p := range device.Profiles() {
		rng := frand.New(*seed ^ uint64(i+1)*0x9e37)
		shot, err := p.CaptureProcessed(sc, rng)
		if err != nil {
			fatal(err)
		}
		writePNG(filepath.Join(*out, "devices", p.Name+".png"), shot)
		raw, err := p.CaptureRAW(sc, frand.New(*seed^uint64(i+1)*0x9e37))
		if err != nil {
			fatal(err)
		}
		writePNG(filepath.Join(*out, "devices", p.Name+"_raw.png"), raw)
		fmt.Printf("device %-8s -> devices/%s.png (+_raw)\n", p.Name, p.Name)
	}

	s9, err := device.ByName("S9")
	if err != nil {
		fatal(err)
	}
	base := isp.Baseline()
	for stage := isp.StageDemosaic; stage < isp.NumStages; stage++ {
		for opt := 0; opt <= 2; opt++ {
			pipe, err := base.Option(stage, opt)
			if err != nil {
				fatal(err)
			}
			im, err := s9.WithISP(pipe).CaptureProcessed(sc, frand.New(*seed^0xabc))
			if err != nil {
				fatal(err)
			}
			name := fmt.Sprintf("%s_opt%d.png", stage, opt)
			writePNG(filepath.Join(*out, "stages", name), im)
		}
	}
	fmt.Printf("stage ablations -> %s/stages/\n", *out)
}

func writePNG(path string, im *isp.Image) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := png.Encode(f, im.ToNRGBA()); err != nil {
		fatal(err)
	}
}

func mustMkdir(dir string) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ispdemo:", err)
	os.Exit(1)
}
