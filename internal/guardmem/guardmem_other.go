//go:build !linux

// Package guardmem hands tests float32 slices that sit against inaccessible
// memory; see guardmem_linux.go. Elsewhere its tests are skipped.
package guardmem

import "testing"

// Float32s skips the test: guard pages are mapped on linux only.
func Float32s(t testing.TB, n int) []float32 {
	t.Helper()
	t.Skip("guardmem: guard pages are mapped on linux only")
	return nil
}
