package nn

import (
	"sync"
	"testing"

	"heteroswitch/internal/frand"
	"heteroswitch/internal/israce"
	"heteroswitch/internal/tensor"
)

// forceNNBackend pins the kernel backend for one test.
func forceNNBackend(t *testing.T, b tensor.Backend) {
	t.Helper()
	prev := tensor.ActiveBackend()
	tensor.SetBackend(b)
	t.Cleanup(func() { tensor.SetBackend(prev) })
}

// Ensure must load exactly once per version: after a load, mutating the
// source weights without bumping the version must not change the replica's
// outputs (the served weights are pinned to the version key).
func TestReplicaEnsureVersionKeyed(t *testing.T) {
	rep := NewReplica(func() *Network { return smallNet(99) }, 1)
	src := smallNet(1)
	w := src.Snapshot()
	r := frand.New(3)
	x := tensor.Randn(r, 1, 2, 1, 8, 8)

	if err := rep.Ensure(0, w); err != nil {
		t.Fatal(err)
	}
	before := rep.Infer(x).Clone()
	w.Params[0].Data()[0] += 10 // corrupt without bumping the version
	if err := rep.Ensure(0, w); err != nil {
		t.Fatal(err)
	}
	if !rep.Infer(x).AllClose(before, 0) {
		t.Fatal("Ensure reloaded weights for an already-loaded version")
	}
	if err := rep.Ensure(1, w); err != nil {
		t.Fatal(err)
	}
	if rep.Infer(x).AllClose(before, 0) {
		t.Fatal("Ensure(new version) did not reload changed weights")
	}
	if rep.version != 1 {
		t.Fatalf("Version() = %d, want 1", rep.version)
	}
}

// Concurrent replicas serving one version must agree bit-for-bit with a
// serial reference replica on the same version: the frozen fold is a pure
// function of the version's weights. Run with -race, this is also the data
// race test for the pool's Get/Ensure/Infer/Put cycle under version churn.
func TestReplicaPoolConcurrentBitIdentical(t *testing.T) {
	build := func() *Network { return smallNet(99) }
	pool := NewReplicaPool(4, build, 1)
	src := smallNet(1)

	// Two immutable versions, served interleaved.
	v0 := src.Snapshot()
	src.Params()[0].W.Data()[0] += 0.5
	v1 := src.Snapshot()
	versions := []Weights{v0, v1}

	ref := NewReplica(build, 1)
	r := frand.New(5)
	const requests = 64
	inputs := make([]*tensor.Tensor, requests)
	want := make([][]float32, requests)
	for i := range inputs {
		inputs[i] = tensor.Randn(r, 1, 2, 1, 8, 8)
		v := i % 2
		if err := ref.Ensure(v, versions[v]); err != nil {
			t.Fatal(err)
		}
		out := ref.Infer(inputs[i])
		want[i] = append([]float32(nil), out.Data()...)
	}

	got := make([][]float32, requests)
	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep := pool.Get()
			defer pool.Put(rep)
			v := i % 2
			if err := rep.Ensure(v, versions[v]); err != nil {
				t.Error(err)
				return
			}
			out := rep.Infer(inputs[i])
			got[i] = append([]float32(nil), out.Data()...)
		}(i)
	}
	wg.Wait()

	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("request %d output[%d] = %v, want %v (replica disagrees with serial reference)",
					i, j, got[i][j], want[i][j])
			}
		}
	}
}

// Same contract with the packed matmul backend forced: concurrent replicas
// hammer the shared pack-buffer pool from many goroutines, and every output
// must still be bit-identical to a serial packed reference (packed outputs
// are budget- and concurrency-invariant). Run with -race, this is the data
// race test for packBufPool under real replica traffic.
func TestReplicaPoolConcurrentPackedBitIdentical(t *testing.T) {
	prev := tensor.ActiveBackend()
	tensor.SetBackend(tensor.BackendPacked)
	t.Cleanup(func() { tensor.SetBackend(prev) })

	build := func() *Network { return smallNet(99) }
	pool := NewReplicaPool(4, build, 2)
	src := smallNet(1)
	w := src.Snapshot()

	ref := NewReplica(build, 1)
	if err := ref.Ensure(0, w); err != nil {
		t.Fatal(err)
	}
	r := frand.New(7)
	const requests = 64
	inputs := make([]*tensor.Tensor, requests)
	want := make([][]float32, requests)
	for i := range inputs {
		inputs[i] = tensor.Randn(r, 1, 2, 1, 8, 8)
		out := ref.Infer(inputs[i])
		want[i] = append([]float32(nil), out.Data()...)
	}

	got := make([][]float32, requests)
	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep := pool.Get()
			defer pool.Put(rep)
			if err := rep.Ensure(0, w); err != nil {
				t.Error(err)
				return
			}
			out := rep.Infer(inputs[i])
			got[i] = append([]float32(nil), out.Data()...)
		}(i)
	}
	wg.Wait()

	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("request %d output[%d] = %v, want %v (packed replica disagrees with packed serial reference)",
					i, j, got[i][j], want[i][j])
			}
		}
	}
}

// The pool's Get/Put cycle is the steady-state request path: it must not
// allocate.
func TestReplicaPoolZeroAllocCycle(t *testing.T) {
	pool := NewReplicaPool(2, func() *Network { return smallNet(1) }, 1)
	allocs := testing.AllocsPerRun(100, func() {
		rep := pool.Get()
		pool.Put(rep)
	})
	if allocs != 0 {
		t.Fatalf("pool Get/Put allocates %v per cycle, want 0", allocs)
	}
}

// replicaPanels returns the packed-weight handles of a replica's frozen
// matmul ops, in program order.
func replicaPanels(rep *Replica) []*tensor.PackedWeights {
	var pws []*tensor.PackedWeights
	for _, op := range rep.net.frozen.ops {
		switch o := op.(type) {
		case *frozenConv:
			pws = append(pws, &o.pw)
		case *frozenDense:
			pws = append(pws, &o.pw)
		}
	}
	return pws
}

// TestPanelPacksPerVersionNotPerBatch is the weight-stationary contract of
// each replica's private panels under the int8 backend: loading a version
// quantizes every matmul's weights, while batches and a repeated Ensure of
// the loaded version never pack. A handle invalidated after the load must
// therefore stay unpacked until the next version arrives.
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

	// smallNet compiles to one conv and one dense matmul op.
	const slots = 2
	packed := func(stage string, want bool) {
		t.Helper()
		for i, rep := range reps {
			pws := replicaPanels(rep)
			if len(pws) != slots {
				t.Fatalf("replica %d has %d matmul handles, want %d", i, len(pws), slots)
			}
			for j, pw := range pws {
				if pw.HasInt8() != want {
					t.Fatalf("%s: replica %d handle %d HasInt8 = %v, want %v", stage, i, j, pw.HasInt8(), want)
				}
			}
		}
	}
	for _, rep := range reps {
		if err := rep.Ensure(0, v0); err != nil {
			t.Fatal(err)
		}
	}
	packed("after loading version 0", true)

	for _, rep := range reps {
		for _, pw := range replicaPanels(rep) {
			pw.Reset()
		}
	}
	r := frand.New(11)
	x := tensor.Randn(r, 1, 2, 1, 8, 8)
	for i := 0; i < 10; i++ {
		for _, rep := range reps {
			rep.Infer(x)
		}
	}
	packed("after steady-state batches", false)
	for _, rep := range reps {
		if err := rep.Ensure(0, v0); err != nil {
			t.Fatal(err)
		}
	}
	packed("after re-ensuring the loaded version", false)

	for _, rep := range reps {
		if err := rep.Ensure(1, v1); err != nil {
			t.Fatal(err)
		}
	}
	packed("after loading version 1", true)
}

// TestReplicaPoolPanelLifecycleUnderChurn drives concurrent replicas across
// a stream of published versions under the int8 backend (run with -race):
// each replica quantizes its own panels once per version, and every output
// must be bit-identical to a serial reference on the same version (a stale
// or clobbered panel would diverge or trip the race detector).
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
				t.Fatalf("request %d output[%d] = %v, want %v (replica diverges from serial reference)",
					i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestReplicaInferSteadyStateZeroAlloc: with the weights quantized and
// scratch pools warm, the int8 inference path allocates nothing per batch.
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
