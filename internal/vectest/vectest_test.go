package vectest

import (
	"fmt"
	"math"
	"testing"

	"heteroswitch/internal/israce"
)

// fatalRecorder is a testing.TB whose Fatalf records its message instead of
// failing the test.
type fatalRecorder struct {
	testing.TB
	msg string
}

func (r *fatalRecorder) Helper() {}

func (r *fatalRecorder) Fatalf(format string, args ...any) { r.msg = fmt.Sprintf(format, args...) }

// TestPlainRunHoldsNaNPayloads: a plain go test — the run that executes every
// seed corpus — keeps the NaN choice closed, so NaNClassEqual still rejects
// two NaNs that differ only in sign and payload, and accepts equal bits.
func TestPlainRunHoldsNaNPayloads(t *testing.T) {
	if israce.Enabled {
		t.Skip("-race leaves the NaN choice open")
	}
	if NaNChoiceOpen() {
		t.Fatal("NaNChoiceOpen in a plain test run")
	}
	a, b := math.Float32frombits(0xffc00123), math.Float32frombits(0x7fc00000)
	rec := &fatalRecorder{TB: t}
	NaNClassEqual(rec, "payloads", []float32{1, a}, []float32{1, b})
	if rec.msg == "" {
		t.Fatal("NaNClassEqual accepted NaN 0xffc00123 for NaN 0x7fc00000 in a plain run")
	}
	rec.msg = ""
	NaNClassEqual(rec, "same bits", []float32{1, a}, []float32{1, a})
	if rec.msg != "" {
		t.Fatalf("NaNClassEqual rejected equal bits: %s", rec.msg)
	}
}
