package tensor

import (
	"fmt"
	"slices"
	"testing"

	"heteroswitch/internal/frand"
)

// Within one Reset-to-Reset window the arena must never hand out the same
// buffer twice — the aliasing guarantee every cached Backward intermediate
// relies on.
func TestArenaDistinctBuffersWithinBatch(t *testing.T) {
	a := NewArena()
	x := a.Get(4, 3)
	y := a.Get(4, 3)
	z := a.GetUninit(4, 3)
	if &x.Data()[0] == &y.Data()[0] || &x.Data()[0] == &z.Data()[0] || &y.Data()[0] == &z.Data()[0] {
		t.Fatal("arena handed out an aliased buffer before Reset")
	}
	x.Fill(1)
	y.Fill(2)
	z.Fill(3)
	if x.Data()[0] != 1 || y.Data()[0] != 2 || z.Data()[0] != 3 {
		t.Fatal("buffers overlap")
	}
}

// After Reset the arena must actually recycle: same shape gets the same
// backing memory back, in hand-out order.
func TestArenaRecyclesAfterReset(t *testing.T) {
	a := NewArena()
	x := a.Get(2, 5)
	y := a.Get(2, 5)
	w := a.Get(7) // different shape class
	a.Reset()
	x2 := a.Get(2, 5)
	y2 := a.Get(2, 5)
	w2 := a.Get(7)
	if &x.Data()[0] != &x2.Data()[0] || &y.Data()[0] != &y2.Data()[0] || &w.Data()[0] != &w2.Data()[0] {
		t.Fatal("arena did not recycle buffers after Reset")
	}
}

// Get must return zeroed memory even when recycling a dirty buffer,
// matching tensor.New semantics.
func TestArenaGetZeroesRecycledBuffer(t *testing.T) {
	a := NewArena()
	a.Get(3, 3).Fill(42)
	a.Reset()
	x := a.Get(3, 3)
	for _, v := range x.Data() {
		if v != 0 {
			t.Fatalf("recycled Get returned dirty value %v", v)
		}
	}
}

// Shapes beyond 4-D fall back to plain allocation (never recycled) but must
// still work.
func TestArenaHighRankFallback(t *testing.T) {
	a := NewArena()
	x := a.Get(2, 2, 2, 2, 2)
	if x.Size() != 32 {
		t.Fatalf("5-D fallback size %d", x.Size())
	}
	if got := a.Live(); got != 0 {
		t.Fatalf("fallback tensor tracked as live: %d", got)
	}
}

func TestArenaLive(t *testing.T) {
	a := NewArena()
	a.Get(4)
	a.Get(4)
	a.Get(2, 2)
	if a.Live() != 3 {
		t.Fatalf("Live = %d, want 3", a.Live())
	}
	a.Reset()
	if a.Live() != 0 {
		t.Fatalf("Live after Reset = %d, want 0", a.Live())
	}
}

// A short final batch must run in the full batch's buffers: requests that
// differ only in their leading dimension share a class, so a 10-then-7-then-10
// sequence allocates once, each Get re-heads shape and length, Get zeroes
// exactly the requested elements, and the tensors of one window stay distinct.
func TestArenaPartialBatchReusesFullBatchBuffers(t *testing.T) {
	a := NewArena()
	x, y := a.Get(10, 4, 3, 3), a.GetUninit(10, 4, 3, 3)
	v := a.Get(10, 6)
	x.Fill(7)
	y.Fill(8)
	base := [3]*float32{&x.Data()[0], &y.Data()[0], &v.Data()[0]}
	for _, n := range []int{7, 10, 1, 0, 10} {
		a.Reset()
		x2, y2 := a.Get(n, 4, 3, 3), a.GetUninit(n, 4, 3, 3)
		v2 := a.Get(n, 6)
		for i, tn := range []*Tensor{x2, y2} {
			if tn.NDim() != 4 || tn.Dim(0) != n || tn.Dim(1) != 4 || tn.Dim(2) != 3 || tn.Dim(3) != 3 || tn.Size() != n*36 {
				t.Fatalf("batch %d: tensor %d has shape %v, size %d", n, i, tn.Shape(), tn.Size())
			}
		}
		if v2.Dim(0) != n || v2.Dim(1) != 6 || v2.Size() != n*6 {
			t.Fatalf("batch %d: 2-D tensor has shape %v, size %d", n, v2.Shape(), v2.Size())
		}
		if n == 0 {
			continue
		}
		if &x2.Data()[0] != base[0] || &y2.Data()[0] != base[1] || &v2.Data()[0] != base[2] {
			t.Fatalf("batch %d did not reuse the batch-10 buffers", n)
		}
		for _, e := range x2.Data() {
			if e != 0 {
				t.Fatalf("batch %d: Get returned dirty value %v", n, e)
			}
		}
		x2.Fill(7)
		y2.Fill(8)
		if a.Live() != 3 {
			t.Fatalf("batch %d: Live = %d, want 3", n, a.Live())
		}
	}
	a.Reset()
	if allocs := testing.AllocsPerRun(10, func() {
		for _, n := range []int{10, 7, 10} {
			a.Reset()
			a.Get(n, 4, 3, 3)
			a.GetUninit(n, 4, 3, 3)
			a.Get(n, 6)
		}
	}); allocs != 0 {
		t.Fatalf("a warm 10-7-10 batch sequence allocates %.1f objects per run, want 0", allocs)
	}
	// A slot grows once when a larger batch arrives, then serves both sizes.
	a.Reset()
	big := a.Get(16, 4, 3, 3)
	if big.Size() != 16*36 || big.Dim(0) != 16 {
		t.Fatalf("grown tensor has shape %v, size %d", big.Shape(), big.Size())
	}
	a.Reset()
	if again := a.Get(10, 4, 3, 3); &again.Data()[0] != &big.Data()[0] {
		t.Fatal("a batch-10 request did not reuse the grown batch-16 buffer")
	}
	// A 1-D tensor has no batch dimension to re-head: its class is its length.
	a.Reset()
	p, q := a.Get(5), a.Get(9)
	if p.Size() != 5 || q.Size() != 9 || a.Live() != 2 {
		t.Fatalf("1-D sizes %d, %d, Live %d", p.Size(), q.Size(), a.Live())
	}
}

// The arena replays the last window's classes; a window that asks in another
// order — longer, shorter, reordered, a class the last one never saw — must
// still get distinct tensors of the requested shapes, Live must count them,
// and a warm alternation of full and short batches must not allocate.
func TestArenaReplayDivergingWindows(t *testing.T) {
	a := NewArena()
	full := [][]int{{4, 3, 5, 5}, {4, 8}, {4, 3, 5, 5}, {6}, {4, 2, 7}}
	windows := [][][]int{
		full,
		full[:2], // shorter
		append(slices.Clone(full), []int{4, 8}, []int{9}),    // longer, with a new class
		{full[3], full[1], full[0], full[4], full[2]},        // reordered
		{{2, 3, 5, 5}, {2, 8}, {2, 3, 5, 5}, {6}, {2, 2, 7}}, // the short batch
		full,
	}
	for wi, shapes := range windows {
		a.Reset()
		got := make([]*Tensor, len(shapes))
		for i, sh := range shapes {
			if i%2 == 0 {
				got[i] = a.Get(sh...)
			} else {
				got[i] = a.GetUninit(sh...)
			}
			if !slices.Equal(got[i].Shape(), sh) || got[i].Size() != prod(sh) {
				t.Fatalf("window %d Get %d: shape %v size %d, want %v", wi, i, got[i].Shape(), got[i].Size(), sh)
			}
			got[i].Fill(float32(i + 1))
		}
		for i, x := range got {
			for _, v := range x.Data() {
				if v != float32(i+1) {
					t.Fatalf("window %d: tensor %d shares memory with a later one", wi, i)
				}
			}
		}
		if a.Live() != len(shapes) {
			t.Fatalf("window %d: Live = %d, want %d", wi, a.Live(), len(shapes))
		}
	}
	short := windows[4]
	if allocs := testing.AllocsPerRun(20, func() {
		for _, shapes := range [][][]int{full, short, full} {
			a.Reset()
			for _, sh := range shapes {
				a.GetUninit(sh...)
			}
		}
	}); allocs != 0 {
		t.Fatalf("alternating full and short windows allocate %.1f objects per run, want 0", allocs)
	}
}

// prod is the element count of a shape.
func prod(shape []int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}

// frozenMobileNetGets are the shapes TinyMobileNetV3's frozen forward asks
// its arena for at batch 1 (3×32×32 input, 12 classes), in order.
var frozenMobileNetGets = [][]int{
	{1, 8, 16, 16}, {1, 16, 16, 16}, {1, 16, 16, 16}, {1, 16}, {1, 4}, {1, 16}, {1, 16, 16, 16},
	{1, 8, 16, 16}, {1, 8, 16, 16}, {1, 24, 16, 16}, {1, 24, 8, 8}, {1, 24}, {1, 6}, {1, 24},
	{1, 24, 8, 8}, {1, 16, 8, 8}, {1, 32, 8, 8}, {1, 32, 8, 8}, {1, 32}, {1, 8}, {1, 32},
	{1, 32, 8, 8}, {1, 16, 8, 8}, {1, 16, 8, 8}, {1, 32, 8, 8}, {1, 32}, {1, 12},
}

// BenchmarkArenaReplay: one frozen forward's worth of GetUninit calls per
// window, in ns/Get. "replay" repeats the sequence, so every Get takes its
// recorded class; "miss" rotates it by one each window, so a Get whose
// neighbour is of another class falls back to the map (and re-records).
func BenchmarkArenaReplay(b *testing.B) {
	for _, rotate := range []bool{false, true} {
		name := map[bool]string{false: "replay", true: "miss"}[rotate]
		b.Run(name, func(b *testing.B) {
			a := NewArena()
			seq := slices.Clone(frozenMobileNetGets)
			for range 2 {
				a.Reset()
				for _, sh := range seq {
					a.GetUninit(sh...)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if rotate {
					first := seq[0]
					copy(seq, seq[1:])
					seq[len(seq)-1] = first
				}
				a.Reset()
				for _, sh := range seq {
					a.GetUninit(sh...)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(seq)), "ns/Get")
		})
	}
}

// Reference kernels for the tiled matmul variants: straightforward triple
// loops with ascending-k accumulation per output element — the op order the
// optimized kernels must reproduce bit-for-bit.
func refMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for x := 0; x < k; x++ {
				s += a.Data()[i*k+x] * b.Data()[x*n+j]
			}
			out.Data()[i*n+j] = s
		}
	}
	return out
}

func refMatMulTransB(a, b *Tensor) *Tensor {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(0)
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for x := 0; x < k; x++ {
				s += a.Data()[i*k+x] * b.Data()[j*k+x]
			}
			out.Data()[i*n+j] = s
		}
	}
	return out
}

func refMatMulTransA(a, b *Tensor) *Tensor {
	k, m, n := a.Dim(0), a.Dim(1), b.Dim(1)
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for x := 0; x < k; x++ {
				s += a.Data()[x*m+i] * b.Data()[x*n+j]
			}
			out.Data()[i*n+j] = s
		}
	}
	return out
}

// Odd sizes exercise the 4-wide unroll remainders; sizes above mmBlock
// exercise the cache blocking.
var kernelSizes = []struct{ m, k, n int }{
	{1, 1, 1}, {2, 3, 5}, {4, 4, 4}, {5, 7, 9}, {8, 16, 12},
	{17, 33, 65}, {64, 64, 64}, {70, 65, 130},
}

func TestTiledMatMulMatchesReference(t *testing.T) {
	r := frand.New(101)
	for _, sz := range kernelSizes {
		a := Randn(r, 1, sz.m, sz.k)
		b := Randn(r, 1, sz.k, sz.n)
		got := mm(a, b)
		want := refMatMul(a, b)
		if !got.AllClose(want, 1e-5) {
			t.Fatalf("MatMul %dx%dx%d diverged from reference", sz.m, sz.k, sz.n)
		}
	}
}

func TestMatMulTransBVariants(t *testing.T) {
	r := frand.New(103)
	for _, sz := range kernelSizes {
		a := Randn(r, 1, sz.m, sz.k)
		b := Randn(r, 1, sz.n, sz.k)
		want := refMatMulTransB(a, b)

		into := New(sz.m, sz.n)
		into.Fill(7) // must be fully overwritten
		MatMulTransBIntoP(1, into, a, b)
		if !into.AllClose(want, 1e-5) {
			t.Fatalf("MatMulTransBIntoP %v diverged", sz)
		}
		acc := Randn(r, 1, sz.m, sz.n)
		wantAcc := acc.Add(want)
		MatMulTransBAccSlices(acc.Data(), a.Data(), b.Data(), sz.m, sz.k, sz.n)
		if !acc.AllClose(wantAcc, 1e-4) {
			t.Fatalf("MatMulTransBAccSlices %v diverged", sz)
		}
	}
}

func TestMatMulTransAAccMatchesReference(t *testing.T) {
	r := frand.New(107)
	for _, sz := range kernelSizes {
		a := Randn(r, 1, sz.k, sz.m)
		b := Randn(r, 1, sz.k, sz.n)
		want := refMatMulTransA(a, b)
		got := New(sz.m, sz.n)
		MatMulTransAAccIntoP(1, got, a, b)
		if !got.AllClose(want, 1e-5) {
			t.Fatalf("MatMulTransAAccIntoP %v diverged", sz)
		}
		// Accumulation: a second pass must exactly double the result.
		MatMulTransAAccIntoP(1, got, a, b)
		want.Scale(2)
		if !got.AllClose(want, 1e-4) {
			t.Fatalf("MatMulTransAAccIntoP %v did not accumulate", sz)
		}
	}
}

// The slice-level entry points (used by grouped convolution on sub-slices)
// must agree with the tensor-level ones.
func TestMatMulSliceEntryPoints(t *testing.T) {
	r := frand.New(109)
	a := Randn(r, 1, 5, 7)
	b := Randn(r, 1, 7, 6)
	out := make([]float32, 5*6)
	for i := range out {
		out[i] = 3 // MatMulSlicesP must overwrite
	}
	MatMulSlicesP(1, out, a.Data(), b.Data(), 5, 7, 6, nil)
	want := refMatMul(a, b)
	if !FromSlice(out, 5, 6).AllClose(want, 1e-5) {
		t.Fatal("MatMulSlicesP diverged")
	}

	bt := Randn(r, 1, 6, 7)
	accT := New(5, 6)
	MatMulTransBAccSlices(accT.Data(), a.Data(), bt.Data(), 5, 7, 6)
	if !accT.AllClose(refMatMulTransB(a, bt), 1e-5) {
		t.Fatal("MatMulTransBAccSlices diverged")
	}

	at := Randn(r, 1, 7, 5)
	accA := New(5, 6)
	MatMulTransAAccSlicesP(1, accA.Data(), at.Data(), b.Data(), 7, 5, 6)
	if !accA.AllClose(refMatMulTransA(at, b), 1e-5) {
		t.Fatal("MatMulTransAAccSlicesP diverged")
	}
}

// BenchmarkMatMul tracks ns/op and allocs/op of the hot kernels at the sizes
// the training stack actually hits (Dense layers and im2col-lowered convs).
func BenchmarkMatMul(b *testing.B) {
	r := frand.New(11)
	for _, sz := range []struct{ m, k, n int }{{8, 64, 128}, {64, 64, 64}, {128, 128, 128}} {
		a := Randn(r, 1, sz.m, sz.k)
		bb := Randn(r, 1, sz.k, sz.n)
		bt := Randn(r, 1, sz.n, sz.k)
		at := Randn(r, 1, sz.k, sz.m)
		out := New(sz.m, sz.n)
		name := func(op string) string {
			return fmt.Sprintf("%s/%dx%dx%d", op, sz.m, sz.k, sz.n)
		}
		b.Run(name("Into"), func(b *testing.B) {
			benchVecArms(b, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					MatMulIntoP(1, out, a, bb)
				}
			})
		})
		b.Run(name("TransBInto"), func(b *testing.B) {
			benchVecArms(b, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					MatMulTransBIntoP(1, out, a, bt)
				}
			})
		})
		b.Run(name("TransAAccInto"), func(b *testing.B) {
			benchVecArms(b, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					MatMulTransAAccIntoP(1, out, at, bb)
				}
			})
		})
		b.Run(name("TransBAccSlices"), func(b *testing.B) {
			benchVecArms(b, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					MatMulTransBAccSlices(out.Data(), a.Data(), bt.Data(), sz.m, sz.k, sz.n)
				}
			})
		})
	}
}
