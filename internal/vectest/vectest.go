// Package vectest is the test side of internal/vec's one switch: it pins
// vec.Live for a test, runs a test under both settings, runs a benchmark as a
// vector arm and a Go-loop arm, and compares the two arms' bits. The
// differential tests of tensor and nn — the Go loops against the routines,
// bit for bit — share it.
package vectest

import (
	"flag"
	"fmt"
	"math"
	"testing"

	"heteroswitch/internal/israce"
	"heteroswitch/internal/vec"
)

// Have is the probe's answer, read before any test flips the switch.
var Have = vec.Live

// SetLive pins the switch for one test (on only where the build and CPU have
// the routines) and restores it afterwards.
func SetLive(t testing.TB, on bool) {
	t.Helper()
	prev := vec.Live
	vec.Live = on && Have
	t.Cleanup(func() { vec.Live = prev })
}

// BothSettings runs f as a subtest under the Go loops and, where the routines
// exist, under them too.
func BothSettings(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	for _, on := range []bool{false, true} {
		if on && !Have {
			continue
		}
		t.Run(fmt.Sprintf("vec=%v", on), func(t *testing.T) {
			SetLive(t, on)
			f(t)
		})
	}
}

// BenchArms runs f as the "default" sub-benchmark and, where the routines
// exist, again as "generic" on the Go loops, so every kernel's speed-up is a
// recorded pair of rows.
func BenchArms(b *testing.B, f func(b *testing.B)) {
	b.Run("default", f)
	if Have {
		b.Run("generic", func(b *testing.B) {
			SetLive(b, false)
			f(b)
		})
	}
}

// Require skips a test that needs both implementations to compare.
func Require(t testing.TB) {
	t.Helper()
	if !Have {
		t.Skip("no vector routines in this build or on this CPU")
	}
}

// NaNChoiceOpen reports whether this test binary leaves open which NaN
// survives where two NaN operands meet, so the parity tests hold NaN for NaN.
// Go does not specify the survivor, and a plain build compiles the Go loops'
// adds in the operand order the routines take, so there it is closed. Two
// builds swap some of those operands: -race, and the coverage
// instrumentation of a fuzzing run (go test -fuzz, whose coordinator and
// -test.fuzzworker processes all carry -test.fuzz). A plain go test, which
// runs every seed corpus, keeps the choice closed.
func NaNChoiceOpen() bool {
	f := flag.Lookup("test.fuzz")
	return israce.Enabled || f != nil && f.Value.String() != ""
}

// NaNClassEqual requires got and want to match bit for bit, NaN signs and
// payloads included, which pins the operand order where two NaN operands can
// meet; where NaNChoiceOpen, any NaN matches any NaN.
func NaNClassEqual(t testing.TB, name string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", name, len(got), len(want))
	}
	open := NaNChoiceOpen()
	for i := range got {
		if g, w := got[i], want[i]; math.Float32bits(g) != math.Float32bits(w) && !(open && g != g && w != w) {
			t.Fatalf("%s: element %d differs: %v (%#x) != %v (%#x) (must be bit-identical)",
				name, i, g, math.Float32bits(g), w, math.Float32bits(w))
		}
	}
}
