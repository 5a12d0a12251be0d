// Package simclock provides a deterministic virtual-time event scheduler and
// seeded latency models for simulating asynchronous client fleets.
//
// Nothing in this package reads the wall clock: time is a float64 that
// advances only when the owner pops the next scheduled event, so every
// simulated schedule is a pure function of the seed and the sequence of
// Schedule calls. Ties at the same virtual instant are broken by the event's
// integer ID (ascending), which makes the pop order — and therefore
// everything driven by it — bit-reproducible across runs and platforms.
package simclock

import "math"

// Event is one scheduled occurrence: a virtual timestamp plus an integer key.
// The key doubles as the deterministic tie-break for events scheduled at the
// same instant (smaller ID pops first).
type Event struct {
	At float64
	ID int
}

// Clock is a virtual-time event queue: a binary min-heap ordered by
// (At, ID). The zero value is ready to use. Clock is not safe for concurrent
// use; drive it from one goroutine.
type Clock struct {
	now    float64
	events []Event
}

// Now returns the current virtual time: 0 initially, then the timestamp of
// the most recently popped event.
func (c *Clock) Now() float64 { return c.now }

// Len returns the number of pending events.
func (c *Clock) Len() int { return len(c.events) }

// Schedule enqueues an event at virtual time `at`. Scheduling into the past
// panics: an event before Now would have to rewind time, which would break
// determinism for everything already popped. So does a NaN instant, which
// compares false against every other and would corrupt the heap order, and
// +Inf, which would stall every event after it.
func (c *Clock) Schedule(at float64, id int) {
	if !(at >= c.now && at <= math.MaxFloat64) {
		panic("simclock: Schedule into the past or at a non-finite instant")
	}
	c.events = append(c.events, Event{At: at, ID: id})
	// Sift up.
	i := len(c.events) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !less(c.events[i], c.events[parent]) {
			break
		}
		c.events[i], c.events[parent] = c.events[parent], c.events[i]
		i = parent
	}
}

// Peek returns the earliest pending event without popping it; the clock does
// not advance. ok is false when nothing is pending. Owners that interleave
// two event sources (e.g. a serving clock stepped up to each training
// publish) use Peek to decide whether the next event belongs to this horizon
// before committing to the pop.
func (c *Clock) Peek() (ev Event, ok bool) {
	if len(c.events) == 0 {
		return Event{}, false
	}
	return c.events[0], true
}

// Next pops the earliest pending event (ties by ascending ID), advances Now
// to its timestamp, and returns it. ok is false when nothing is pending; the
// clock does not advance then.
func (c *Clock) Next() (ev Event, ok bool) {
	n := len(c.events)
	if n == 0 {
		return Event{}, false
	}
	root := c.events[0]
	c.events[0] = c.events[n-1]
	c.events = c.events[:n-1]
	// Sift down.
	n--
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && less(c.events[l], c.events[smallest]) {
			smallest = l
		}
		if r < n && less(c.events[r], c.events[smallest]) {
			smallest = r
		}
		if smallest == i {
			break
		}
		c.events[i], c.events[smallest] = c.events[smallest], c.events[i]
		i = smallest
	}
	c.now = root.At
	return root, true
}

// less is the heap order: earlier time first, smaller ID on ties.
func less(a, b Event) bool {
	return a.At < b.At || (a.At == b.At && a.ID < b.ID)
}
