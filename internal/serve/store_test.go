package serve

import (
	"fmt"
	"sync"
	"testing"

	"heteroswitch/internal/nn"
	"heteroswitch/internal/tensor"
)

// fillWeights sets every parameter and state value of w to v.
func fillWeights(w nn.Weights, v float32) nn.Weights {
	for _, ts := range [][]*tensor.Tensor{w.Params, w.States} {
		for _, t := range ts {
			d := t.Data()
			for i := range d {
				d[i] = v
			}
		}
	}
	return w
}

// TestRepublishNeverRollsBack: Republish copies the current values and
// publishes them under one lock hold, so a Publish racing it is never
// followed by a newer version carrying older values. One goroutine publishes
// 1, 2, 3, …, one republishes, and a reader checks that the values never
// decrease as the version grows and that no version is torn; the last version
// must hold the last published value. CI runs it under -race.
func TestRepublishNeverRollsBack(t *testing.T) {
	s := NewStore(fillWeights(testWeights(t), 0))
	const publishes = 3000
	done := make(chan struct{})
	errs := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				s.Republish()
			}
		}
	}()
	go func() {
		defer wg.Done()
		lastV, lastVal := -1, float32(-1)
		for {
			select {
			case <-done:
				return
			default:
			}
			v, w := s.Acquire()
			val := w.Params[0].Data()[0]
			torn := false
			for _, x := range w.Params[len(w.Params)-1].Data() {
				torn = torn || x != val
			}
			s.Release(v)
			if torn || v < lastV || (v > lastV && val < lastVal) {
				errs <- fmt.Errorf("version %d holds %v (torn=%v) after version %d held %v", v, val, torn, lastV, lastVal)
				return
			}
			lastV, lastVal = v, val
		}
	}()
	for i := 1; i <= publishes; i++ {
		s.Publish(fillWeights(s.TakeBuffer(), float32(i)))
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	v, w := s.Acquire()
	defer s.Release(v)
	if got := w.Params[0].Data()[0]; got != publishes {
		t.Fatalf("final version %d holds %v, want the last published value %d", v, got, publishes)
	}
}
