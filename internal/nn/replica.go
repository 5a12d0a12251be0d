package nn

import "heteroswitch/internal/tensor"

// Replica is one goroutine's private inference copy of a served model: its
// own Network (arena, im2col scratch, frozen view with its packed-weight
// handles) plus the model version it last loaded. Neither Network nor Frozen
// is safe for concurrent use, so a server runs one Replica per worker and
// moves versioned weights to it through Ensure; the weights themselves are
// read-only and shared.
//
// Ensure is deliberately version-keyed rather than comparing weights: loading
// (and re-folding BN into the frozen view, packed weights included) happens
// exactly once per version per replica, and a batch executed on version v is
// bit-identical on every replica because the folded weights are a pure
// function of v's values.
type Replica struct {
	net *Network
	inf Inference
	// version is the last Ensure'd model version; -1 before the first load.
	version int
}

// NewReplica builds a replica from the model builder, granting it an intraOp
// budget (SetIntraOp; 0 keeps the builder's setting). The replica
// has no weights loaded yet: Ensure before the first Infer.
func NewReplica(build func() *Network, intraOp int) *Replica {
	net := build()
	if intraOp > 0 {
		net.SetIntraOp(intraOp)
	}
	return &Replica{net: net, version: -1}
}

// Ensure makes the replica serve model version v with the given weights:
// a no-op when v is already loaded, otherwise one LoadWeights plus one
// re-fold of the frozen view. w must stay immutable while any replica can
// still Ensure against v (the VersionStore's retain window).
func (r *Replica) Ensure(v int, w Weights) error {
	if r.version == v && r.inf != nil {
		return nil
	}
	if err := r.net.LoadWeights(w); err != nil {
		return err
	}
	// One Freeze per version load: Freeze re-folds BN to the new weights
	// here, not per batch.
	r.inf = r.net.Freeze()
	r.version = v
	return nil
}

// Infer runs one batch through the replica's fused frozen view. The output
// aliases the replica's arena: valid until the next Infer on this replica, so
// copy out before Put-ing it back.
func (r *Replica) Infer(x *tensor.Tensor) *tensor.Tensor {
	if r.inf == nil {
		panic("nn: Replica.Infer before Ensure")
	}
	return r.inf.Infer(x)
}

// ReplicaPool hands out replicas to concurrent request goroutines. It is a
// fixed-size blocking pool on a buffered channel: Get blocks until a replica
// is free (admission control — at most Size batches execute at once), and
// both Get and Put are allocation-free, keeping the steady-state request
// path at 0 allocs/op. The replicas share nothing but the read-only weights.
type ReplicaPool struct {
	ch chan *Replica
}

// NewReplicaPool builds n replicas from the builder, each granted intraOp
// cores (0 keeps the builder's setting).
func NewReplicaPool(n int, build func() *Network, intraOp int) *ReplicaPool {
	p := &ReplicaPool{ch: make(chan *Replica, n)}
	for i := 0; i < n; i++ {
		p.ch <- NewReplica(build, intraOp)
	}
	return p
}

// Size returns the number of replicas owned by the pool.
func (p *ReplicaPool) Size() int { return cap(p.ch) }

// Free returns the number of replicas currently idle in the pool. A quiesced
// server must report Free() == Size(); anything less means a borrower leaked
// a replica (the serving error-path regression tests assert exactly this).
func (p *ReplicaPool) Free() int { return len(p.ch) }

// Get blocks until a replica is free and transfers it to the caller.
func (p *ReplicaPool) Get() *Replica { return <-p.ch }

// Put returns a replica to the pool.
func (p *ReplicaPool) Put(r *Replica) { p.ch <- r }
