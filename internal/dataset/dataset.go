// Package dataset turns captured images into training/evaluation data and
// provides the federation plumbing: per-device capture of a shared scene
// set, shuffling, splitting, batching, and per-client partitioning.
package dataset

import (
	"fmt"
	"sync"
	"sync/atomic"

	"heteroswitch/internal/device"
	"heteroswitch/internal/frand"
	"heteroswitch/internal/isp"
	"heteroswitch/internal/scene"
	"heteroswitch/internal/tensor"
)

// Sample is one training/evaluation example.
type Sample struct {
	X      *tensor.Tensor // [C, H, W]
	Label  int            // single-label class; -1 when Multi is used
	Multi  []float32      // multi-label indicator vector (nil if single-label)
	Device int            // index of the capturing device profile
}

// Dataset is an ordered collection of samples.
type Dataset struct {
	Samples    []Sample
	NumClasses int
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Samples) }

// Subset returns a view of the given sample indices.
func (d *Dataset) Subset(idx []int) *Dataset {
	s := make([]Sample, len(idx))
	for i, j := range idx {
		s[i] = d.Samples[j]
	}
	return &Dataset{Samples: s, NumClasses: d.NumClasses}
}

// Concat appends other datasets (class counts must agree).
func Concat(ds ...*Dataset) *Dataset {
	out := &Dataset{}
	for _, d := range ds {
		if d == nil || len(d.Samples) == 0 {
			continue
		}
		if out.NumClasses == 0 {
			out.NumClasses = d.NumClasses
		}
		out.Samples = append(out.Samples, d.Samples...)
	}
	return out
}

// BatchInto fills x and labels with samples [lo, hi), for allocation-free
// training loops. x must be shaped [hi-lo, sample...] (every element is
// overwritten) and labels must have length hi-lo.
func (d *Dataset) BatchInto(x *tensor.Tensor, labels []int, lo, hi int) {
	n := hi - lo
	per := d.Samples[lo].X.Size()
	if x.Size() != n*per || len(labels) != n {
		panic(fmt.Sprintf("dataset: BatchInto buffers (%d elems, %d labels) for %d samples of %d elems",
			x.Size(), len(labels), n, per))
	}
	for i := 0; i < n; i++ {
		s := d.Samples[lo+i]
		if s.X.Size() != per {
			panic(fmt.Sprintf("dataset: sample %d has %d elems, batch expects %d", lo+i, s.X.Size(), per))
		}
		copy(x.Data()[i*per:(i+1)*per], s.X.Data())
		labels[i] = s.Label
	}
}

// BatchMultiInto materializes samples [lo, hi) with their multi-label
// targets into caller-owned buffers: x must be [hi-lo, sample...] and y must
// be [hi-lo, NumClasses]; every element of both is overwritten.
func (d *Dataset) BatchMultiInto(x, y *tensor.Tensor, lo, hi int) {
	n := hi - lo
	per := d.Samples[lo].X.Size()
	if x.Size() != n*per || y.Size() != n*d.NumClasses {
		panic(fmt.Sprintf("dataset: BatchMultiInto buffers (%d, %d elems) for %d samples of %d elems, %d classes",
			x.Size(), y.Size(), n, per, d.NumClasses))
	}
	for i := 0; i < n; i++ {
		s := d.Samples[lo+i]
		// The buffers are reused uninitialized, so a short sample would
		// silently leave the previous batch's data in place — fail loudly.
		if s.X.Size() != per || len(s.Multi) != d.NumClasses {
			panic(fmt.Sprintf("dataset: sample %d has %d elems / %d labels, batch expects %d / %d",
				lo+i, s.X.Size(), len(s.Multi), per, d.NumClasses))
		}
		copy(x.Data()[i*per:(i+1)*per], s.X.Data())
		copy(y.Data()[i*d.NumClasses:(i+1)*d.NumClasses], s.Multi)
	}
}

// CaptureMode selects how captured frames are developed.
type CaptureMode int

// Capture modes.
const (
	// ModeProcessed develops frames with the device's own ISP and vendor
	// tuning — normal operation.
	ModeProcessed CaptureMode = iota
	// ModeRAW develops frames with minimal bilinear demosaic only — the
	// §3.3 RAW-data condition.
	ModeRAW
)

// Capture photographs every scene with the given device and returns a
// dataset of outRes×outRes tensors labelled with the scene class and the
// provided device index.
func Capture(scenes []scene.Scene, dev *device.Profile, devIndex int,
	mode CaptureMode, outRes, numClasses int, rng *frand.RNG) (*Dataset, error) {
	return captureOne(scenes, dev, devIndex, mode.develop(), outRes, numClasses, rng)
}

// CaptureWithPipeline photographs every scene with the device's sensor but a
// caller-supplied ISP pipeline (no vendor tuning) — the ISP-stage ablation
// path (§3.4).
func CaptureWithPipeline(scenes []scene.Scene, dev *device.Profile, devIndex int,
	pipe isp.Pipeline, outRes, numClasses int, rng *frand.RNG) (*Dataset, error) {
	develop := func(dev *device.Profile, raw *isp.RAW, sc *isp.Scratch) (*isp.Image, error) {
		im, err := sc.Process(pipe, raw)
		if err != nil {
			return nil, fmt.Errorf("device %s: %w", dev.Name, err)
		}
		return im, nil
	}
	return captureOne(scenes, dev, devIndex, develop, outRes, numClasses, rng)
}

// captureOne is captureGrid for a single device, on the calling goroutine.
func captureOne(scenes []scene.Scene, dev *device.Profile, devIndex int, develop developFunc,
	outRes, numClasses int, rng *frand.RNG) (*Dataset, error) {
	sets, err := captureGrid(scenes, []*device.Profile{dev}, devIndex, develop,
		outRes, numClasses, []*frand.RNG{rng}, 1)
	if err != nil {
		return nil, err
	}
	return sets[0], nil
}

// CaptureDevices is Capture for a whole device population photographing the
// same scenes: device i captures every scene in order on its own stream
// rngs[i] and is tagged with index i. The images, not the devices, are
// spread over the workers, so unequal devices keep every worker busy, and
// the result is the one len(devs) Capture calls would give at any worker
// count.
func CaptureDevices(scenes []scene.Scene, devs []*device.Profile, mode CaptureMode,
	outRes, numClasses int, rngs []*frand.RNG, workers int) ([]*Dataset, error) {
	return captureGrid(scenes, devs, 0, mode.develop(), outRes, numClasses, rngs, workers)
}

// developFunc develops one RAW frame of a device into scratch storage.
type developFunc func(dev *device.Profile, raw *isp.RAW, sc *isp.Scratch) (*isp.Image, error)

func (m CaptureMode) develop() developFunc {
	if m == ModeRAW {
		return func(_ *device.Profile, raw *isp.RAW, sc *isp.Scratch) (*isp.Image, error) {
			return sc.ProcessRAWOnly(raw), nil
		}
	}
	return (*device.Profile).Develop
}

// captureGrid is the one capture loop: every device photographs every scene.
// A capture has two halves. Exposure draws the sensor noise from the
// device's RNG stream, so a device's exposures run one after another, in
// scene order, under the device's lock. Development (ISP, tuning, resize,
// tensor) is a pure function of the exposed frame, so it runs outside the
// lock, and any worker may develop any image. Work is handed out scene-major
// (scene 0 on every device, then scene 1, …): image t belongs to device
// t mod D, and the k-th worker to reach a device exposes that device's k-th
// scene, which is what makes the result independent of scheduling.
//
// Each worker owns one isp.Scratch, reset per image, holding every
// intermediate; the sample tensor is the only per-image allocation that
// outlives the image. Device i's samples are tagged firstIndex+i.
func captureGrid(scenes []scene.Scene, devs []*device.Profile, firstIndex int, develop developFunc,
	outRes, numClasses int, rngs []*frand.RNG, workers int) ([]*Dataset, error) {
	// A scene is resized once per sensor resolution that several devices
	// share, not once per device; a resolution with one device is resized
	// per image inside Expose, through the scratch.
	users := map[int]int{}
	for _, dev := range devs {
		if err := dev.Sensor.Validate(); err != nil {
			return nil, fmt.Errorf("dataset: capture: device %s: %w", dev.Name, err)
		}
		users[dev.Sensor.Resolution]++
	}
	shared := map[int][]*isp.Image{}
	for res, n := range users {
		if n < 2 {
			continue
		}
		resized := make([]*isp.Image, len(scenes))
		for j, sc := range scenes {
			resized[j] = (*isp.Scratch)(nil).Resize(sc.Image, res, res)
		}
		shared[res] = resized
	}

	type chain struct {
		mu   sync.Mutex
		next int // scene the device exposes next
	}
	chains := make([]chain, len(devs))
	sets := make([]*Dataset, len(devs))
	for i := range sets {
		sets[i] = &Dataset{NumClasses: numClasses, Samples: make([]Sample, len(scenes))}
	}
	var (
		errMu    sync.Mutex
		firstErr error
		ticket   atomic.Int64
	)
	total := int64(len(devs) * len(scenes))
	work := func() {
		var sc isp.Scratch
		for {
			t := ticket.Add(1) - 1
			if t >= total {
				return
			}
			i := int(t % int64(len(devs)))
			dev, c := devs[i], &chains[i]
			sc.Reset()

			c.mu.Lock()
			j := c.next
			c.next++
			view := scenes[j].Image
			if resized := shared[dev.Sensor.Resolution]; resized != nil {
				view = resized[j]
			}
			raw := dev.Sensor.Expose(view, rngs[i], &sc)
			c.mu.Unlock()

			im, err := develop(dev, raw, &sc)
			if err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("dataset: capture class %d: %w", scenes[j].Class, err)
				}
				errMu.Unlock()
				ticket.Store(total) // hand out no more work
				return
			}
			sets[i].Samples[j] = Sample{
				X:      sc.Resize(im, outRes, outRes).ToTensor(),
				Label:  scenes[j].Class,
				Device: firstIndex + i,
			}
		}
	}
	if workers <= 1 {
		work()
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work()
			}()
		}
		wg.Wait()
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return sets, nil
}

// PartitionIID deals the dataset round-robin into n client shards after a
// shuffle, giving each client an approximately IID subset.
func (d *Dataset) PartitionIID(n int, rng *frand.RNG) []*Dataset {
	idx := rng.Perm(len(d.Samples))
	shards := make([]*Dataset, n)
	for i := range shards {
		shards[i] = &Dataset{NumClasses: d.NumClasses}
	}
	for i, j := range idx {
		s := shards[i%n]
		s.Samples = append(s.Samples, d.Samples[j])
	}
	return shards
}
