package dataset

import (
	"testing"

	"heteroswitch/internal/frand"
	"heteroswitch/internal/tensor"
)

// TestBatchScratchMatchesBatch verifies Next fills exactly what the
// allocating BatchInto/BatchMultiInto would, for both label kinds, and that Alloc
// tensors never alias the batch buffers within one batch.
func TestBatchScratchMatchesBatch(t *testing.T) {
	r := frand.New(3)
	single := &Dataset{NumClasses: 3}
	multi := &Dataset{NumClasses: 3}
	for i := 0; i < 7; i++ {
		single.Samples = append(single.Samples, Sample{X: tensor.Randn(r, 1, 2, 4, 4), Label: i % 3})
		mv := make([]float32, 3)
		mv[i%3] = 1
		multi.Samples = append(multi.Samples, Sample{X: tensor.Randn(r, 1, 2, 4, 4), Label: -1, Multi: mv})
	}

	bs := GetBatchScratch()
	defer PutBatchScratch(bs)

	for lo := 0; lo < single.Len(); lo += 3 {
		hi := min(lo+3, single.Len())
		x, y, labels := bs.Next(single, lo, hi)
		if y != nil {
			t.Fatal("single-label batch returned dense targets")
		}
		wantX, wantL := batch(single, lo, hi)
		if !x.AllClose(wantX, 0) {
			t.Fatalf("batch [%d,%d) input differs from BatchInto", lo, hi)
		}
		for i := range labels {
			if labels[i] != wantL[i] {
				t.Fatalf("label %d: %d != %d", i, labels[i], wantL[i])
			}
		}
		extra := bs.Alloc(x.Shape()...)
		if &extra.Data()[0] == &x.Data()[0] {
			t.Fatal("Alloc aliased the live batch input")
		}
	}

	x, y, labels := bs.Next(multi, 1, 5)
	if labels != nil {
		t.Fatal("multi-label batch returned labels")
	}
	wantX, wantY := batchMulti(multi, 1, 5)
	if !x.AllClose(wantX, 0) || !y.AllClose(wantY, 0) {
		t.Fatal("multi-label batch differs from BatchMultiInto")
	}
}

// TestBatchScratchZeroAllocSteadyState verifies a warmed scratch batches
// without heap allocation — the property the eval harnesses rely on for
// large sweeps.
func TestBatchScratchZeroAllocSteadyState(t *testing.T) {
	r := frand.New(5)
	ds := &Dataset{NumClasses: 2}
	for i := 0; i < 16; i++ {
		ds.Samples = append(ds.Samples, Sample{X: tensor.Randn(r, 1, 2, 4, 4), Label: i % 2})
	}
	bs := GetBatchScratch()
	defer PutBatchScratch(bs)
	bs.Next(ds, 0, 8) // warm the arena and label slice
	allocs := testing.AllocsPerRun(20, func() {
		for lo := 0; lo < ds.Len(); lo += 8 {
			bs.Next(ds, lo, lo+8)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm BatchScratch allocates %.1f/op, want 0", allocs)
	}
}

// TestForBatchesCoversDataset checks the shared eval iterator visits every
// window exactly once (including the partial tail) with Next's buffers.
func TestForBatchesCoversDataset(t *testing.T) {
	r := frand.New(9)
	ds := &Dataset{NumClasses: 4}
	for i := 0; i < 11; i++ {
		ds.Samples = append(ds.Samples, Sample{X: tensor.Randn(r, 1, 2, 3, 3), Label: i % 4})
	}
	bs := GetBatchScratch()
	defer PutBatchScratch(bs)
	var bounds [][2]int
	seen := 0
	bs.ForBatches(ds, 4, func(lo, hi int, x, y *tensor.Tensor, labels []int) {
		bounds = append(bounds, [2]int{lo, hi})
		if y != nil {
			t.Fatal("single-label data must not produce dense targets")
		}
		if x.Dim(0) != hi-lo || len(labels) != hi-lo {
			t.Fatalf("window [%d,%d): batch %d, labels %d", lo, hi, x.Dim(0), len(labels))
		}
		for i, l := range labels {
			if l != (lo+i)%4 {
				t.Fatalf("window [%d,%d): label %d = %d, want %d", lo, hi, i, l, (lo+i)%4)
			}
		}
		seen += hi - lo
	})
	want := [][2]int{{0, 4}, {4, 8}, {8, 11}}
	if len(bounds) != len(want) {
		t.Fatalf("windows %v, want %v", bounds, want)
	}
	for i := range want {
		if bounds[i] != want[i] {
			t.Fatalf("window %d = %v, want %v", i, bounds[i], want[i])
		}
	}
	if seen != ds.Len() {
		t.Fatalf("covered %d samples, want %d", seen, ds.Len())
	}
}
