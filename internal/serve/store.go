// Package serve is the serving front end for the frozen inference path: a
// refcounted cache of published model versions, a pool of Config.Workers
// frozen replicas that PredictInto callers share at IntraOp/Workers cores
// each, and a deterministic closed-loop load harness on internal/simclock:
// a per-version micro-batcher under a virtual-time latency budget whose
// batches compute, one at a time, on the harness's own replica at the whole
// IntraOp budget. A replica's intra-op budget splits a batch's conv
// iterations (samples × groups) across the parallel pool; a batch-1 request
// runs on one core.
//
// Determinism contract: the load harness never reads the wall clock — every
// arrival, batch deadline, and service completion is a virtual-time event
// whose schedule is a pure function of (seed, config), and batch outputs run
// through an nn.Frozen replica that is bit-identical at every intra-op
// budget. Two runs with the same LoadConfig therefore produce bit-identical
// per-request outputs, latency histograms, and quantiles, at any -intraop.
package serve

import (
	"sync"

	"heteroswitch/internal/nn"
)

// Store is the serving-side owner of published model versions. It wraps the
// shared nn.VersionStore (the same retain/release/recycle machinery the
// aggregation core uses for its globals and in-flight jobs) behind a mutex so
// concurrent request goroutines can pin the version they were admitted under
// while the trainer publishes newer ones. The store holds its live version
// like any reader: it retains each version it publishes and releases the one
// it replaces. A pinned version's weights stay immutable until its last
// reference is released; the buffer then recycles into the pool the next
// Publish draws from, so steady-state version churn allocates no model-sized
// buffers.
type Store struct {
	mu      sync.Mutex
	vs      nn.VersionStore
	version int
	current nn.Weights
}

// NewStore publishes w as version 0.
func NewStore(w nn.Weights) *Store {
	s := &Store{current: w}
	s.vs.Retain(0, w) // the store's own reference keeps the live version resident
	return s
}

// Version returns the current (latest published) version number.
func (s *Store) Version() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.version
}

// Acquire pins the current version for one reader and returns it with its
// weights. The weights are immutable until the matching Release.
func (s *Store) Acquire() (int, nn.Weights) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.vs.Retain(s.version, s.current)
	return s.version, s.current
}

// Release drops one reader's pin on version v.
func (s *Store) Release(v int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.vs.Release(v)
}

// Publish makes w the current version and returns its number, taking
// ownership of w. The previous version stays resident until its last reader
// releases it, then recycles.
func (s *Store) Publish(w nn.Weights) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.publishLocked(w)
}

// publishLocked is Publish with s.mu already held: the store's reference
// moves from the old version to the new one.
func (s *Store) publishLocked(w nn.Weights) int {
	s.version++
	s.current = w
	s.vs.Retain(s.version, w)
	s.vs.Release(s.version - 1)
	return s.version
}

// Republish publishes a new version carrying the current version's exact
// values, copied into a recycled buffer. Serving output is bit-unchanged;
// what changes is every version-keyed cache downstream (replica reloads,
// batch pinning), which is precisely what the load harness's churn knob
// exercises. The copy and the publish happen under one lock hold, so a
// concurrent Publish lands either before the copy (and is what gets
// republished) or after the new version — never between them, where the
// republish would roll its values back.
func (s *Store) Republish() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	buf := s.vs.TakeBuffer(s.current)
	buf.CopyFrom(s.current)
	return s.publishLocked(buf)
}

// TakeBuffer returns a recycled model-shaped buffer for the next Publish.
func (s *Store) TakeBuffer() nn.Weights {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.vs.TakeBuffer(s.current)
}

// Live returns the number of versions still pinned (the current version
// always counts: the store itself holds one reference to it).
func (s *Store) Live() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.vs.Live()
}
