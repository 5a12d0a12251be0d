//go:build !race

// Package israce reports whether the binary was built with -race. Its one
// use is skipping AllocsPerRun assertions on pooled hot paths: sync.Pool
// intentionally drops items at random under the race detector, so
// steady-state allocation counts are nondeterministic there.
package israce

// Enabled is true in a -race build.
const Enabled = false
