package simclock

import (
	"math"
	"testing"

	"heteroswitch/internal/frand"
)

func drain(c *Clock) []Event {
	var out []Event
	for {
		ev, ok := c.Next()
		if !ok {
			return out
		}
		out = append(out, ev)
	}
}

func TestClockOrdersByTime(t *testing.T) {
	var c Clock
	times := []float64{3.5, 0.25, 7, 1, 0.5, 2}
	for i, at := range times {
		c.Schedule(at, i)
	}
	if c.Len() != len(times) {
		t.Fatalf("Len = %d, want %d", c.Len(), len(times))
	}
	got := drain(&c)
	for i := 1; i < len(got); i++ {
		if got[i].At < got[i-1].At {
			t.Fatalf("events out of order: %v after %v", got[i], got[i-1])
		}
	}
	if c.Now() != 7 {
		t.Fatalf("Now = %v after draining, want 7", c.Now())
	}
}

// Ties at one instant must pop in ascending ID order regardless of the
// insertion order — the determinism contract the async server leans on.
func TestClockTieBreaksByID(t *testing.T) {
	r := frand.New(99)
	for trial := 0; trial < 50; trial++ {
		var c Clock
		ids := r.Perm(17)
		for _, id := range ids {
			c.Schedule(1.5, id)
		}
		c.Schedule(0.5, 100) // earlier event mixed in
		got := drain(&c)
		if got[0].ID != 100 {
			t.Fatalf("earlier event popped late: %v", got[0])
		}
		for i := 1; i < len(got); i++ {
			if got[i].ID != i-1 {
				t.Fatalf("tie order broken: got ID %d at position %d (insertion %v)", got[i].ID, i, ids)
			}
		}
	}
}

func TestClockNextAdvancesNowAndEmptyNext(t *testing.T) {
	var c Clock
	if _, ok := c.Next(); ok {
		t.Fatal("empty clock returned an event")
	}
	c.Schedule(2, 1)
	ev, ok := c.Next()
	if !ok || ev.At != 2 || c.Now() != 2 {
		t.Fatalf("ev %v ok %v now %v", ev, ok, c.Now())
	}
	// Scheduling at exactly Now is legal (zero-latency completions).
	c.Schedule(2, 2)
	if ev, _ := c.Next(); ev.ID != 2 {
		t.Fatalf("same-instant event lost: %v", ev)
	}
}

func TestClockPeekDoesNotAdvance(t *testing.T) {
	var c Clock
	if _, ok := c.Peek(); ok {
		t.Fatal("empty clock peeked an event")
	}
	c.Schedule(3, 1)
	c.Schedule(1, 2)
	ev, ok := c.Peek()
	if !ok || ev.At != 1 || ev.ID != 2 {
		t.Fatalf("Peek = %v, %v; want earliest event (1, id 2)", ev, ok)
	}
	if c.Now() != 0 || c.Len() != 2 {
		t.Fatalf("Peek advanced the clock: now=%v len=%d", c.Now(), c.Len())
	}
	// Peek is idempotent and agrees with the subsequent Next.
	if again, _ := c.Peek(); again != ev {
		t.Fatalf("second Peek %v != first %v", again, ev)
	}
	if popped, _ := c.Next(); popped != ev {
		t.Fatalf("Next %v != Peek %v", popped, ev)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	for _, at := range []float64{1, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Schedule(%v) after Now = 5 did not panic", at)
				}
			}()
			var c Clock
			c.Schedule(5, 1)
			c.Next()
			c.Schedule(at, 2)
		}()
	}
}

// The warm event loop — schedule a burst, drain it — must not allocate:
// the async server runs this millions of times per simulation.
func TestClockWarmLoopAllocs(t *testing.T) {
	var c Clock
	run := func() {
		for i := 0; i < 64; i++ {
			c.Schedule(c.Now()+float64(i%7), i)
		}
		for {
			if _, ok := c.Next(); !ok {
				break
			}
		}
	}
	run() // warm the heap's storage
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("warm schedule/drain loop allocates %v times per run", allocs)
	}
}

// Seeded models must reproduce identical schedules across instances and be
// insensitive to sampling order.
func TestLatencyModelsReproducible(t *testing.T) {
	models := []struct {
		name string
		mk   func(seed uint64) LatencyModel
	}{
		{"const", func(uint64) LatencyModel { return Constant{D: 1.5} }},
		{"uniform", func(s uint64) LatencyModel { return Uniform{Lo: 0.5, Hi: 2, Seed: s} }},
		{"straggler", func(s uint64) LatencyModel {
			return StragglerTail{Lo: 0.5, Hi: 2, TailProb: 0.3, TailFactor: 8, Seed: s}
		}},
	}
	for _, m := range models {
		a, b := m.mk(7), m.mk(7)
		other := m.mk(8)
		same, differ := true, false
		// b samples in reverse order: draws must depend only on (id, step).
		var got [20][20]float64
		for id := 0; id < 20; id++ {
			for step := 0; step < 20; step++ {
				got[id][step] = a.Sample(id, step)
			}
		}
		for id := 19; id >= 0; id-- {
			for step := 19; step >= 0; step-- {
				if b.Sample(id, step) != got[id][step] {
					same = false
				}
				if other.Sample(id, step) != got[id][step] {
					differ = true
				}
			}
		}
		if !same {
			t.Errorf("%s: same seed produced different schedules", m.name)
		}
		if m.name != "const" && !differ {
			t.Errorf("%s: different seeds produced identical schedules", m.name)
		}
	}
}

func TestUniformBoundsAndSpread(t *testing.T) {
	m := Uniform{Lo: 0.5, Hi: 2, Seed: 3}
	seen := map[float64]bool{}
	for id := 0; id < 40; id++ {
		v := m.Sample(id, 5)
		if v < 0.5 || v >= 2 {
			t.Fatalf("sample %v outside [0.5, 2)", v)
		}
		seen[v] = true
	}
	if len(seen) < 30 {
		t.Fatalf("uniform draws collapsed: %d distinct of 40", len(seen))
	}
}

func TestStragglerTailPersistentAndBounded(t *testing.T) {
	m := StragglerTail{Lo: 1, Hi: 2, TailProb: 0.4, TailFactor: 10, Seed: 11}
	stragglers := 0
	for id := 0; id < 200; id++ {
		isS := m.IsStraggler(id)
		if isS {
			stragglers++
		}
		for step := 0; step < 10; step++ {
			v := m.Sample(id, step)
			if isS && (v < 10 || v >= 20) {
				t.Fatalf("straggler %d drew %v, want [10, 20)", id, v)
			}
			if !isS && (v < 1 || v >= 2) {
				t.Fatalf("fast client %d drew %v, want [1, 2)", id, v)
			}
		}
	}
	// Deterministic marking should land near TailProb for 200 clients.
	if frac := float64(stragglers) / 200; math.Abs(frac-0.4) > 0.15 {
		t.Fatalf("straggler fraction %v far from 0.4", frac)
	}
}

func TestParseModel(t *testing.T) {
	good := map[string]any{
		"":                      Constant{},
		"zero":                  Constant{},
		"const:2.5":             Constant{D: 2.5},
		"uniform:0.5,2":         Uniform{Lo: 0.5, Hi: 2, Seed: 42},
		"straggler:0.5,2,0.1,8": StragglerTail{Lo: 0.5, Hi: 2, TailProb: 0.1, TailFactor: 8, Seed: 42},
	}
	for spec, want := range good {
		got, err := ParseModel(spec, 42)
		if err != nil {
			t.Errorf("ParseModel(%q): %v", spec, err)
			continue
		}
		if got != want {
			t.Errorf("ParseModel(%q) = %#v, want %#v", spec, got, want)
		}
	}
	for _, spec := range []string{"nope", "const:", "const:-1", "uniform:2,1", "uniform:1",
		"straggler:1,2,3", "straggler:1,2,2,8", "straggler:1,2,0.1,0.5", "const:abc", "zero:1",
		"const:inf", "uniform:0,inf", "straggler:0.5,2,0.5,inf"} {
		if _, err := ParseModel(spec, 1); err == nil {
			t.Errorf("ParseModel(%q) accepted a bad spec", spec)
		}
	}
}
