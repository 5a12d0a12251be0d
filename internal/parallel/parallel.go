// Package parallel is the parallelism runtime: a persistent worker pool plus
// a deterministic range splitter. The frozen (inference) forward's kernels —
// tensor's fused matmuls and nn's frozen ops — use it to spread one
// operator's work across cores, and the experiment harnesses use For to
// train one model per worker.
//
// Determinism contract: Run and For split [0, n) into a FIXED partition of
// contiguous chunks keyed only by (budget, n, grain) — never by dynamic
// stealing or by which worker happens to be idle — and every chunk is
// processed by exactly one goroutine with the same serial code the
// single-threaded kernels run. A kernel whose chunks write disjoint output
// ranges therefore produces bit-identical results at every budget, including
// budget 1, which bypasses the pool entirely and is byte-for-byte the serial
// kernel.
//
// Composition contract: callers pass an explicit budget — the maximum number
// of chunks in flight — instead of sizing work to the machine. A process
// that is already parallel at a coarser grain (client or model workers)
// grants each coarse worker a Share of GOMAXPROCS so the total never
// oversubscribes the machine. Dispatch never queues: a chunk is handed to an
// idle pool worker or run inline on the caller, so nested Run calls (a frozen
// kernel inside a model worker, or inside another Run) cannot deadlock.
//
// The dispatch path performs no steady-state heap allocation: per-call state
// is recycled through a sync.Pool and tasks travel by value through the
// submission channel.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// minChunkWork is the floor on per-chunk work (in multiply-add-like units)
// below which parallel dispatch costs more than it saves; GrainFor derives
// per-item grains from it. A dispatch that finds its worker parked costs a
// futex wake and a wait — 10–20 µs measured, not the ~0.7 µs of back-to-back
// dispatches — so a chunk must carry several times that: 1<<19 multiply-adds
// is ≈ 50 µs on the AVX2 oracle kernels (≈ 10 GMAC/s). Chunking never
// changes bits, so the value is a pure speed knob; a budget test must pick
// shapes above it and assert that they split (Chunks > 1).
const minChunkWork = 1 << 19

// Runner is one data-parallel loop body. Run invokes Run(chunk, lo, hi) once
// per chunk of the fixed partition; chunk indexes the partition (0-based,
// dense), so a Runner can address per-chunk scratch without synchronization.
type Runner interface {
	Run(chunk, lo, hi int)
}

// Workers returns the pool size: GOMAXPROCS at the time the pool started, or
// the current GOMAXPROCS before first use. It is the natural "full machine"
// budget for single-tenant callers.
func Workers() int {
	if p := pool.Load(); p != nil {
		return p.size
	}
	return runtime.GOMAXPROCS(0)
}

// Share is the core-budget token grant: an equal share, at least 1, of a total
// intra-op budget (total <= 0 means Workers()) for each of workers concurrent
// tenants, so tenants × their kernel parallelism never oversubscribes the
// machine. A single tenant receives the whole budget.
func Share(total, workers int) int {
	if total <= 0 {
		total = Workers()
	}
	return max(total/max(workers, 1), 1)
}

// Chunks returns the number of chunks Run/For will use for the given budget,
// range length, and grain: min(budget, n/grain), at least 1 (0 for empty
// ranges). Every chunk holds at least grain items. Callers sizing per-chunk
// scratch use it to match Run's partition exactly.
func Chunks(budget, n, grain int) int {
	if n <= 0 {
		return 0
	}
	if grain < 1 {
		grain = 1
	}
	p := n / grain
	if p > budget {
		p = budget
	}
	if p < 1 {
		p = 1
	}
	return p
}

// GrainFor converts per-item work (multiply-add-like units) into the minimum
// items one chunk must hold so chunks amortize dispatch overhead. Heavy items
// get grain 1; featherweight items get grains large enough that small loops
// stay serial.
func GrainFor(perItem int) int {
	if perItem < 1 {
		perItem = 1
	}
	g := minChunkWork / perItem
	if g < 1 {
		g = 1
	}
	return g
}

// Run splits [0, n) into Chunks(budget, n, grain) contiguous chunks and
// invokes r.Run on each, concurrently up to the budget. It returns when every
// chunk has finished. With an effective chunk count of 1 (small n, small
// budget, or large grain) it calls r.Run(0, 0, n) inline — the serial
// fallback, byte-for-byte the plain loop.
func Run(budget, n, grain int, r Runner) {
	p := Chunks(budget, n, grain)
	if p <= 1 {
		if n > 0 {
			r.Run(0, 0, n)
		}
		return
	}
	wp := getPool()
	c := ctxPool.Get().(*runCtx)
	c.r, c.n, c.p = r, n, p
	c.wg.Add(p - 1)
	for i := 1; i < p; i++ {
		select {
		case wp.tasks <- task{ctx: c, chunk: i}:
		default:
			// Every pool worker is busy (nested Run, or budgets beyond the
			// machine): run the chunk on the caller instead of queueing, so
			// nesting can never deadlock and work never waits behind work.
			c.runChunk(i)
			c.wg.Done()
		}
	}
	r.Run(0, 0, n/p)
	c.wg.Wait()
	c.r = nil
	ctxPool.Put(c)
}

// For is Run for closure-based callers: fn receives each chunk's [lo, hi)
// range. The closure may allocate (it escapes to the pool workers); hot
// kernels that must stay allocation-free implement Runner on a recycled
// struct and call Run directly.
func For(budget, n, grain int, fn func(lo, hi int)) {
	f := funcRunner{fn: fn}
	Run(budget, n, grain, &f)
}

type funcRunner struct{ fn func(lo, hi int) }

func (f *funcRunner) Run(_, lo, hi int) { f.fn(lo, hi) }

// runCtx is the per-Run dispatch state, recycled through ctxPool.
type runCtx struct {
	r    Runner
	n, p int
	wg   sync.WaitGroup
}

func (c *runCtx) runChunk(i int) { c.r.Run(i, i*c.n/c.p, (i+1)*c.n/c.p) }

var ctxPool = sync.Pool{New: func() any { return new(runCtx) }}

// task is one chunk handed to a pool worker; it travels by value.
type task struct {
	ctx   *runCtx
	chunk int
}

// workerPool is the process-wide persistent pool, started lazily at first
// parallel Run and sized to GOMAXPROCS at that moment.
type workerPool struct {
	size  int
	tasks chan task
}

var (
	pool     atomic.Pointer[workerPool]
	poolOnce sync.Once
)

func getPool() *workerPool {
	if p := pool.Load(); p != nil {
		return p
	}
	poolOnce.Do(func() { pool.Store(startPool(runtime.GOMAXPROCS(0))) })
	return pool.Load()
}

// startPool starts size workers and returns once every one is running. A
// dispatch that finds no worker receiving runs the chunk inline, so a first
// Run racing the workers' start would run serially — and a one-shot For (one
// model per worker) would train every model on the caller.
func startPool(size int) *workerPool {
	wp := &workerPool{size: size, tasks: make(chan task)}
	var started sync.WaitGroup
	started.Add(size)
	for i := 0; i < size; i++ {
		go func() {
			started.Done()
			for t := range wp.tasks {
				t.ctx.runChunk(t.chunk)
				t.ctx.wg.Done()
			}
		}()
	}
	started.Wait()
	return wp
}
