package parallel

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestChunksPartition checks the splitter's invariants across a grid of
// (budget, n, grain): chunk count respects budget and grain, chunks tile
// [0, n) exactly, and every chunk holds at least grain items when more than
// one chunk exists.
func TestChunksPartition(t *testing.T) {
	for _, budget := range []int{1, 2, 3, 4, 7, 8, 16} {
		for _, n := range []int{0, 1, 2, 3, 5, 8, 13, 64, 65, 127, 1000} {
			for _, grain := range []int{1, 2, 5, 64, 1000} {
				p := Chunks(budget, n, grain)
				if n == 0 {
					if p != 0 {
						t.Fatalf("Chunks(%d,%d,%d)=%d, want 0", budget, n, grain, p)
					}
					continue
				}
				if p < 1 || p > budget || p > n {
					t.Fatalf("Chunks(%d,%d,%d)=%d out of range", budget, n, grain, p)
				}
				if p > 1 && n/p < grain {
					t.Fatalf("Chunks(%d,%d,%d)=%d: chunk size %d below grain %d", budget, n, grain, p, n/p, grain)
				}
				// The partition used by Run must tile [0, n) exactly.
				covered := 0
				prevHi := 0
				for c := 0; c < p; c++ {
					lo, hi := c*n/p, (c+1)*n/p
					if lo != prevHi {
						t.Fatalf("partition gap at chunk %d: lo=%d prev hi=%d", c, lo, prevHi)
					}
					covered += hi - lo
					prevHi = hi
				}
				if covered != n || prevHi != n {
					t.Fatalf("partition covers %d of %d", covered, n)
				}
			}
		}
	}
}

// TestForCoversRangeOnce verifies every index is visited exactly once at
// several budgets, using atomic counters so the test doubles as a -race probe
// of the dispatch path.
func TestForCoversRangeOnce(t *testing.T) {
	const n = 1003
	for _, budget := range []int{1, 2, 3, 4, 8, 32} {
		var hits [n]int32
		For(budget, n, 1, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("budget %d: index %d visited %d times", budget, i, h)
			}
		}
	}
}

// TestRunChunkIndexing verifies chunk indices are dense, unique, and match
// the Chunks partition, which per-chunk scratch sizing depends on.
func TestRunChunkIndexing(t *testing.T) {
	const n, budget, grain = 100, 4, 1
	p := Chunks(budget, n, grain)
	seen := make([]int32, p)
	var mu sync.Mutex
	bounds := make(map[int][2]int)
	For(budget, n, grain, func(lo, hi int) {}) // warm the pool
	Run(budget, n, grain, runnerFunc(func(chunk, lo, hi int) {
		atomic.AddInt32(&seen[chunk], 1)
		mu.Lock()
		bounds[chunk] = [2]int{lo, hi}
		mu.Unlock()
	}))
	for c := 0; c < p; c++ {
		if seen[c] != 1 {
			t.Fatalf("chunk %d ran %d times", c, seen[c])
		}
		want := [2]int{c * n / p, (c + 1) * n / p}
		if bounds[c] != want {
			t.Fatalf("chunk %d bounds %v, want %v", c, bounds[c], want)
		}
	}
}

type runnerFunc func(chunk, lo, hi int)

func (f runnerFunc) Run(chunk, lo, hi int) { f(chunk, lo, hi) }

// TestNestedRunNoDeadlock exercises Run inside Run inside multiple
// goroutines — the fl-worker × intra-op composition. The unqueued dispatch
// (idle worker or inline) must make this deadlock-free regardless of pool
// size.
func TestNestedRunNoDeadlock(t *testing.T) {
	var total atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			For(4, 64, 1, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					For(4, 64, 1, func(lo2, hi2 int) {
						total.Add(int64(hi2 - lo2))
					})
				}
			})
		}()
	}
	wg.Wait()
	if got := total.Load(); got != 4*64*64 {
		t.Fatalf("nested loops covered %d items, want %d", got, 4*64*64)
	}
}

// TestGrainFor spot-checks the work→grain mapping: heavy items parallelize
// at grain 1, featherweight items get grains that keep small loops serial.
// TestFreshPoolReceivesAtOnce: every worker of a just-started pool takes a
// chunk without the caller waiting, so the first Run of a process — a
// one-shot For training one model per worker — runs its chunks in parallel
// instead of falling back to the caller.
func TestFreshPoolReceivesAtOnce(t *testing.T) {
	const size = 4
	wp := startPool(size)
	defer close(wp.tasks)
	release := make(chan struct{})
	c := &runCtx{r: &funcRunner{fn: func(lo, hi int) { <-release }}, n: size, p: size}
	c.wg.Add(size)
	for i := 0; i < size; i++ {
		select {
		case wp.tasks <- task{ctx: c, chunk: i}:
		default:
			close(release)
			t.Fatalf("fresh pool: worker %d of %d was not receiving", i+1, size)
		}
	}
	close(release)
	c.wg.Wait()
}

func TestGrainFor(t *testing.T) {
	if g := GrainFor(minChunkWork); g != 1 {
		t.Fatalf("GrainFor(heavy)=%d, want 1", g)
	}
	if g := GrainFor(1); g != minChunkWork {
		t.Fatalf("GrainFor(1)=%d, want %d", g, minChunkWork)
	}
	if g := GrainFor(0); g != minChunkWork {
		t.Fatalf("GrainFor(0)=%d, want %d", g, minChunkWork)
	}
}

// TestWorkersPositive sanity-checks the full-machine budget.
func TestWorkersPositive(t *testing.T) {
	if Workers() < 1 {
		t.Fatalf("Workers()=%d", Workers())
	}
}

// BenchmarkRunDispatch measures the dispatch overhead (and, with
// -benchmem, that the Runner path performs no steady-state allocation).
func BenchmarkRunDispatch(b *testing.B) {
	var sink atomic.Int64
	r := runnerFunc(func(_, lo, hi int) { sink.Add(int64(hi - lo)) })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(4, 1024, 1, r)
	}
}
