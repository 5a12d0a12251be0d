package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public function of the program (spans inside the program are a later
// issue). Start and End are offsets from the tracer's epoch.
type span struct {
	Name   string
	Layer  string
	Start  time.Duration
	End    time.Duration
	Parent int // index of the causing span, -1 for a root
	Op     int // operation index within the workload (round, request, call)
	Lane   int // worker or client the call ran on; the Chrome trace's tid
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced passes run the same code with tracing off.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name, layer string, parent, op, lane int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Layer: layer, Parent: parent, Op: op, Lane: lane, Start: time.Since(t.epoch)})
	t.mu.Unlock()
	return id
}

// end closes the span opened by begin.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	at := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id].End = at
	t.mu.Unlock()
}

// mark returns the number of spans recorded so far; since(mark) returns a
// copy of the spans recorded after it, re-based so Parent indexes the copy
// (parents older than the mark become -1).
func (t *tracer) mark() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

func (t *tracer) since(mark int) []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]span(nil), t.spans[mark:]...)
	for i := range out {
		out[i].Parent = max(out[i].Parent-mark, -1)
	}
	return out
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its direct children cover. Overlapping children (two workers under
// one round) are counted once, and a child is clipped to its parent.
func selfTimes(spans []span) []time.Duration {
	type iv struct{ lo, hi time.Duration }
	kids := make(map[int][]iv)
	for _, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			p := spans[s.Parent]
			lo, hi := max(s.Start, p.Start), min(s.End, p.End)
			if hi > lo {
				kids[s.Parent] = append(kids[s.Parent], iv{lo, hi})
			}
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		ivs := kids[i]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, edge time.Duration
		edge = s.Start
		for _, v := range ivs {
			if v.hi <= edge {
				continue
			}
			covered += v.hi - max(v.lo, edge)
			edge = v.hi
		}
		self[i] = s.dur() - covered
	}
	return self
}

// layerSelfSeconds sums span self time by layer.
func layerSelfSeconds(spans []span) map[string]float64 {
	out := map[string]float64{}
	for i, d := range selfTimes(spans) {
		out[spans[i].Layer] += d.Seconds()
	}
	return out
}

// writeChromeTrace writes the spans as Chrome trace-event JSON (complete
// "X" events, microsecond timestamps), loadable in chrome://tracing or
// Perfetto.
func (t *tracer) writeChromeTrace(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.Name, Cat: s.Layer, Ph: "X", Ts: us(s.Start), Dur: us(s.dur()),
			Pid: 1, Tid: s.Lane, Args: map[string]int{"id": i, "parent": s.Parent, "op": s.Op},
		}
	}
	t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
