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
type Arena struct {
	classes map[arenaKey]*arenaClass
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
	tensors []*Tensor
	next    int
}

// NewArena returns an empty arena.
func NewArena() *Arena {
	return &Arena{classes: make(map[arenaKey]*arenaClass)}
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
	c := a.classes[key]
	if c == nil {
		c = &arenaClass{}
		a.classes[key] = c
	}
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

// Reset releases every buffer back to the arena. Tensors handed out before
// Reset must no longer be read or written afterwards — the next Get may
// return the same backing memory.
func (a *Arena) Reset() {
	for _, c := range a.classes {
		c.next = 0
	}
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
