package nn

// VersionStore tracks reference-counted versions of a model's weights: every
// holder of version v — the owner that publishes versions, an in-flight
// asynchronous training job that must train against the exact global
// broadcast at its dispatch, or an admitted prediction request that must be
// served by the exact model version current at its admission — retains v
// until it is done with it. A version whose last reference is released
// recycles its buffer into a free pool the owner draws its next outgoing
// weight sets from, so the steady state of a version-churning loop allocates
// no model-sized buffers at all.
//
// The store is deliberately passive: it never copies weights and never
// decides what "current" means. The owner holds its live version like any
// other reader: it retains each version it publishes and releases the one it
// replaces, so a buffer backing the live version always has a reference and
// is never recycled out from under it.
//
// The zero value is ready to use. VersionStore is not safe for concurrent
// use; owners that admit from multiple goroutines wrap it in a mutex
// (internal/serve does), while the aggregation core (internal/fl) calls it
// from one goroutine only.
type VersionStore struct {
	entries map[int]*versionEntry
	free    []Weights
}

type versionEntry struct {
	w    Weights
	refs int
}

// Retain records one reference to version v, whose weights are w.
func (vs *VersionStore) Retain(v int, w Weights) {
	if vs.entries == nil {
		vs.entries = map[int]*versionEntry{}
	}
	e := vs.entries[v]
	if e == nil {
		e = &versionEntry{w: w}
		vs.entries[v] = e
	}
	e.refs++
}

// Weights returns version v's weights; v must have been retained.
func (vs *VersionStore) Weights(v int) Weights { return vs.entries[v].w }

// Release drops one reference to version v. The last release recycles the
// version's buffer.
func (vs *VersionStore) Release(v int) {
	e := vs.entries[v]
	e.refs--
	if e.refs > 0 {
		return
	}
	delete(vs.entries, v)
	vs.free = append(vs.free, e.w)
}

// TakeBuffer returns a pooled model-shaped buffer, allocating a zeroed clone
// only when the pool is empty.
func (vs *VersionStore) TakeBuffer(like Weights) Weights {
	if n := len(vs.free); n > 0 {
		w := vs.free[n-1]
		vs.free = vs.free[:n-1]
		return w
	}
	return like.Zero()
}

// GiveBuffer returns an unused buffer to the pool.
func (vs *VersionStore) GiveBuffer(w Weights) { vs.free = append(vs.free, w) }

// Live returns the number of versions still pinned by at least one reference.
func (vs *VersionStore) Live() int { return len(vs.entries) }

// FreeCount returns the number of recycled buffers waiting in the pool.
func (vs *VersionStore) FreeCount() int { return len(vs.free) }
