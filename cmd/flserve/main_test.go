package main

import (
	"strings"
	"testing"
)

// TestRunRejectsEmptyInputBank: -inputs below 1 is a flag error, reported
// before anything is built.
func TestRunRejectsEmptyInputBank(t *testing.T) {
	for _, bank := range []int{0, -1} {
		err := run(config{bank: bank})
		if err == nil || !strings.Contains(err.Error(), "-inputs") {
			t.Fatalf("-inputs %d: got %v, want the -inputs error", bank, err)
		}
	}
}
