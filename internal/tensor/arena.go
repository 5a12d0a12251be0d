package tensor

// Arena is a recycler of per-batch tensors, keyed by shape below the batch
// dimension. Training hot loops
// allocate every layer output, gradient, and scratch tensor from an arena and
// call Reset once per batch; after the first batch warms the arena up, the
// steady state performs no heap allocation at all.
//
// Ownership contract:
//
//   - Get/GetUninit hand out tensors that remain valid until the next Reset.
//     A caller that needs a tensor to survive Reset must Clone it (or copy
//     into storage it owns) before Reset runs.
//   - Reset marks every buffer free again without releasing memory; the next
//     Get of the same trailing dimensions returns a recycled buffer, re-headed
//     to the requested leading dimension — so a client's short final batch
//     runs in the full batch's buffers instead of allocating its own set.
//     Within one Reset-to-Reset window all returned tensors are distinct (no
//     aliasing).
//   - An Arena is NOT safe for concurrent use. Use one arena per goroutine
//     (in practice: per network replica).
//
// Tensors with more than four dimensions fall back to plain allocation and
// are never recycled; nothing in this codebase exceeds 4-D (NCHW).
//
// Replay. A training step or a frozen forward asks for the same classes in
// the same order every batch, so the arena records the class of the i-th
// GetUninit since Reset and, next window, takes a request whose class key
// equals the recorded one without hashing its shape. A request that differs
// (a window longer, shorter or reordered against the last) looks its class
// up in the map and overwrites the record — one compare more than a lookup.
// An arena that alternates two sequences, as a network's training windows
// and the frozen evaluation windows sharing its arena do, misses through the
// first window after each switch. Either way a request gets the same class
// and the same next-free tensor.
type Arena struct {
	classes []*arenaClass            // every class, in creation order
	index   map[arenaKey]*arenaClass // the lookup behind a replay miss
	replay  []*arenaClass            // class of the i-th GetUninit since Reset, last time
	pos     int                      // GetUninit calls since Reset
}

// arenaKey identifies a size class: the rank and every dimension but the
// leading one (a 1-D tensor's class is its one dimension). Requests of one
// class differ only in how many leading slices they need, so a free buffer
// serves any of them by re-heading its leading dimension.
type arenaKey struct {
	nd         int
	d1, d2, d3 int
}

// arenaClass is one class's free list: tensors[:next] are handed out,
// tensors[next:] are free. Reset rewinds next to 0.
type arenaClass struct {
	key     arenaKey
	tensors []*Tensor
	next    int
}

// NewArena returns an empty arena.
func NewArena() *Arena {
	return &Arena{index: make(map[arenaKey]*arenaClass)}
}

func arenaKeyOf(shape []int) (arenaKey, bool) {
	k := arenaKey{nd: len(shape)}
	switch len(shape) {
	case 0:
	case 1:
		k.d1 = shape[0]
	case 2:
		k.d1 = shape[1]
	case 3:
		k.d1, k.d2 = shape[1], shape[2]
	case 4:
		k.d1, k.d2, k.d3 = shape[1], shape[2], shape[3]
	default:
		return k, false
	}
	return k, true
}

// Get returns a zero-filled tensor of the given shape, recycling a buffer
// released by the last Reset when one is available. Semantically equivalent
// to New(shape...), minus the steady-state allocation.
func (a *Arena) Get(shape ...int) *Tensor {
	t := a.GetUninit(shape...)
	t.Zero()
	return t
}

// GetUninit is Get without the zero fill: the contents are unspecified
// (whatever the previous batch left behind). Use it only when the caller
// overwrites every element before reading any.
func (a *Arena) GetUninit(shape ...int) *Tensor {
	key, ok := arenaKeyOf(shape)
	if !ok {
		return New(shape...)
	}
	var c *arenaClass
	if i := a.pos; i < len(a.replay) && a.replay[i].key == key {
		c = a.replay[i]
	} else {
		c = a.miss(key)
	}
	a.pos++
	if c.next == len(c.tensors) {
		c.tensors = append(c.tensors, New(shape...))
	}
	t := c.tensors[c.next]
	c.next++
	if len(shape) > 0 && t.shape[0] != shape[0] {
		// Same class, another leading dimension: re-head the buffer, growing
		// it once if this request is the largest the slot has seen.
		n := 1
		for _, d := range shape {
			n *= d
		}
		if shape[0] < 0 || n > cap(t.data) {
			*t = *New(shape...) // New rejects a negative dimension
		} else {
			t.shape[0], t.data = shape[0], t.data[:n]
		}
	}
	return t
}

// miss returns the class of a GetUninit that the record does not predict —
// the map's, created on first sight — and records it for the next window.
func (a *Arena) miss(key arenaKey) *arenaClass {
	i := a.pos
	c := a.index[key]
	if c == nil {
		c = &arenaClass{key: key}
		a.index[key] = c
		a.classes = append(a.classes, c)
	}
	if i < len(a.replay) {
		a.replay[i] = c
	} else {
		a.replay = append(a.replay, c)
	}
	return c
}

// Reset releases every buffer back to the arena. Tensors handed out before
// Reset must no longer be read or written afterwards — the next Get may
// return the same backing memory.
func (a *Arena) Reset() {
	for _, c := range a.classes {
		c.next = 0
	}
	a.pos = 0
}

// Live returns the number of tensors currently handed out (since the last
// Reset). Intended for tests and diagnostics.
func (a *Arena) Live() int {
	n := 0
	for _, c := range a.classes {
		n += c.next
	}
	return n
}
