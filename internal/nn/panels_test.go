package nn

import (
	"sync"
	"testing"

	"heteroswitch/internal/frand"
	"heteroswitch/internal/israce"
	"heteroswitch/internal/tensor"
)

// The shared panel-cache contract (panels.go): a version's packed weights
// are built once no matter how many replicas serve it, a publish→retire
// sequence never reclaims a set a replica still references, superseded sets
// recycle (capacity kept, no leak), and the steady-state inference path
// neither packs nor allocates.

// forceNNBackend pins the kernel backend for one test.
func forceNNBackend(t *testing.T, b tensor.Backend) {
	t.Helper()
	prev := tensor.ActiveBackend()
	tensor.SetBackend(b)
	t.Cleanup(func() { tensor.SetBackend(prev) })
}

// TestPanelCacheAcquireRelease pins the refcount semantics: same-version
// acquires share one set, the newest set survives zero references, and a
// superseded set recycles exactly once with its slot capacity retained.
func TestPanelCacheAcquireRelease(t *testing.T) {
	pc := NewPanelCache()
	a1 := pc.Acquire(0, 2)
	a2 := pc.Acquire(0, 2)
	if a1 != a2 {
		t.Fatal("same-version acquires returned distinct sets")
	}
	if pc.Resident() != 1 {
		t.Fatalf("Resident = %d, want 1", pc.Resident())
	}
	pc.Release(a1)
	pc.Release(a2)
	if pc.Resident() != 1 || pc.Recycled() != 0 {
		t.Fatalf("newest set must survive zero refs: resident %d recycled %d", pc.Resident(), pc.Recycled())
	}

	b := pc.Acquire(1, 2)
	if b == a1 {
		t.Fatal("version 1 reused the still-resident version 0 set")
	}
	// Re-acquiring the superseded version still finds its resident set…
	a3 := pc.Acquire(0, 2)
	if a3 != a1 {
		t.Fatal("resident superseded set was not found by version key")
	}
	// …and its final release recycles it now that version 1 is newer.
	pc.Release(a3)
	if pc.Resident() != 1 || pc.Recycled() != 1 {
		t.Fatalf("superseded set not recycled: resident %d recycled %d", pc.Resident(), pc.Recycled())
	}
	// The recycled set's arrays come back for the next version, flags clear.
	c := pc.Acquire(2, 2)
	if c != a1 {
		t.Fatal("recycled set was not reused")
	}
	for i, p := range c.packed {
		if p {
			t.Fatalf("recycled set slot %d still marked packed", i)
		}
	}
	pc.Release(b)
	if pc.Resident() != 1 || pc.Recycled() != 2 {
		t.Fatalf("after retiring version 1: resident %d recycled %d", pc.Resident(), pc.Recycled())
	}
}

// TestPanelPacksPerVersionNotPerBatch is the weight-stationary accounting
// contract: under the int8 backend a pool of replicas packs each version's
// weights exactly once per matmul slot — not once per replica, and never per
// batch.
func TestPanelPacksPerVersionNotPerBatch(t *testing.T) {
	forceNNBackend(t, tensor.BackendInt8)
	const replicas = 3
	pool := NewReplicaPool(replicas, func() *Network { return smallNet(99) }, 1)
	src := smallNet(1)
	v0 := src.Snapshot()
	src.Params()[0].W.Data()[0] += 0.25
	v1 := src.Snapshot()

	reps := make([]*Replica, replicas)
	for i := range reps {
		reps[i] = pool.Get()
	}
	defer func() {
		for _, rep := range reps {
			pool.Put(rep)
		}
	}()

	// smallNet compiles to one conv slot + one dense slot.
	const slots = 2
	base := tensor.WeightPackCount()
	for _, rep := range reps {
		if err := rep.Ensure(0, v0); err != nil {
			t.Fatal(err)
		}
	}
	if got := tensor.WeightPackCount() - base; got != slots {
		t.Fatalf("%d replicas ensuring one version packed %d times, want %d (once per slot)", replicas, got, slots)
	}

	r := frand.New(11)
	x := tensor.Randn(r, 1, 2, 1, 8, 8)
	for i := 0; i < 10; i++ {
		for _, rep := range reps {
			rep.Infer(x)
		}
	}
	if got := tensor.WeightPackCount() - base; got != slots {
		t.Fatalf("steady-state batches packed weights: count %d, want %d", got, slots)
	}

	for _, rep := range reps {
		if err := rep.Ensure(1, v1); err != nil {
			t.Fatal(err)
		}
	}
	if got := tensor.WeightPackCount() - base; got != 2*slots {
		t.Fatalf("two versions packed %d times total, want %d", got, 2*slots)
	}
}

// TestReplicaPoolPanelLifecycleUnderChurn drives concurrent replicas across
// a stream of published versions (run with -race): every output must be
// bit-identical to a serial reference on the same version (a freed or
// clobbered panel would diverge or trip the race detector), and afterwards
// every superseded version's panel set must have been reclaimed — exactly
// one set resident once all replicas land on the final version.
func TestReplicaPoolPanelLifecycleUnderChurn(t *testing.T) {
	forceNNBackend(t, tensor.BackendInt8)
	build := func() *Network { return smallNet(99) }
	const replicas = 4
	pool := NewReplicaPool(replicas, build, 1)

	const nVersions = 6
	src := smallNet(1)
	versions := make([]Weights, nVersions)
	for v := range versions {
		versions[v] = src.Snapshot()
		src.Params()[0].W.Data()[0] += 0.125
	}

	ref := NewReplica(build, 1)
	r := frand.New(17)
	const requests = 96
	inputs := make([]*tensor.Tensor, requests)
	want := make([][]float32, requests)
	for i := range inputs {
		inputs[i] = tensor.Randn(r, 1, 2, 1, 8, 8)
		v := i * nVersions / requests // monotone publish schedule
		if err := ref.Ensure(v, versions[v]); err != nil {
			t.Fatal(err)
		}
		want[i] = append([]float32(nil), ref.Infer(inputs[i]).Data()...)
	}

	got := make([][]float32, requests)
	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep := pool.Get()
			defer pool.Put(rep)
			v := i * nVersions / requests
			if err := rep.Ensure(v, versions[v]); err != nil {
				t.Error(err)
				return
			}
			got[i] = append([]float32(nil), rep.Infer(inputs[i]).Data()...)
		}(i)
	}
	wg.Wait()

	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("request %d output[%d] = %v, want %v (shared panels diverge from serial reference)",
					i, j, got[i][j], want[i][j])
			}
		}
	}

	// Land every replica on the final version, then audit the cache: one
	// resident set, everything superseded recycled, no leaked panels.
	reps := make([]*Replica, replicas)
	for i := range reps {
		reps[i] = pool.Get()
		if err := reps[i].Ensure(nVersions-1, versions[nVersions-1]); err != nil {
			t.Fatal(err)
		}
	}
	pc := reps[0].panels
	for _, rep := range reps {
		pool.Put(rep)
	}
	if res := pc.Resident(); res != 1 {
		t.Fatalf("%d panel sets resident after all replicas reached the final version, want 1 (leak)", res)
	}
	// Every version was served at least once, so at least nVersions sets
	// were brought resident over the run; all but the final one must have
	// been recycled (out-of-order stale requests may add a few more cycles).
	if rec := pc.Recycled(); rec < nVersions-1 {
		t.Fatalf("recycled %d sets, want at least %d", rec, nVersions-1)
	}
}

// TestReplicaInferSteadyStateZeroAlloc: with panels packed and scratch pools
// warm, the int8 inference path allocates nothing per batch.
func TestReplicaInferSteadyStateZeroAlloc(t *testing.T) {
	if israce.Enabled {
		t.Skip("sync.Pool drops items randomly under -race; alloc counts are nondeterministic")
	}
	forceNNBackend(t, tensor.BackendInt8)
	pool := NewReplicaPool(1, func() *Network { return smallNet(99) }, 1)
	rep := pool.Get()
	defer pool.Put(rep)
	if err := rep.Ensure(0, smallNet(1).Snapshot()); err != nil {
		t.Fatal(err)
	}
	x := tensor.Randn(frand.New(23), 1, 2, 1, 8, 8)
	rep.Infer(x) // warm the arena, im2col scratch, and int8 scratch pool
	if allocs := testing.AllocsPerRun(100, func() { rep.Infer(x) }); allocs != 0 {
		t.Fatalf("steady-state int8 Infer allocates %v per batch, want 0", allocs)
	}
}
