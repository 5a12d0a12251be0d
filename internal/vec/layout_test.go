//go:build amd64 && !purego

package vec

import (
	"os"
	"strings"
	"testing"
)

// TestEveryRoutineOpensOnACacheLine holds the layout rule of vec_amd64.s at
// its source: the first line of every TEXT routine is PCALIGN $64, which
// raises the routine's alignment to 64 so it starts on a cache line wherever
// the linker puts the packages before it, and no other PCALIGN appears. The
// addresses themselves are checked in CI on the perfbook binary: a test
// binary is linked without a symbol table, and it drops the routines its
// tests do not call.
func TestEveryRoutineOpensOnACacheLine(t *testing.T) {
	src, err := os.ReadFile("vec_amd64.s")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(src), "\n")
	routines, aligns := 0, 0
	for i, l := range lines {
		if strings.HasPrefix(strings.TrimSpace(l), "PCALIGN") {
			aligns++
		}
		if !strings.HasPrefix(l, "TEXT ") {
			continue
		}
		routines++
		if i+1 == len(lines) || strings.TrimSpace(lines[i+1]) != "PCALIGN $64" {
			t.Errorf("vec_amd64.s:%d: %q does not open with PCALIGN $64", i+1, l)
		}
	}
	if routines == 0 {
		t.Fatal("vec_amd64.s has no TEXT routine")
	}
	if aligns != routines {
		t.Errorf("vec_amd64.s has %d PCALIGN lines for %d routines; PCALIGN $64 opens each routine and appears nowhere else", aligns, routines)
	}
}
