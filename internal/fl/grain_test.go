package fl

import (
	"os"
	"testing"
	_ "unsafe" // for go:linkname

	_ "heteroswitch/internal/parallel"
)

// The intra-op determinism tests of this package use small shapes, which only
// split into parallel chunks — and so only test anything — under a small
// dispatch floor. parallel.minChunkWork is tuned to the vector kernels' speed,
// far above those shapes, so this test binary puts the scalar-era floor back.
// Chunking never changes bits, only which goroutine computes them.
//
//go:linkname parallelMinChunkWork heteroswitch/internal/parallel.minChunkWork
var parallelMinChunkWork int

func TestMain(m *testing.M) {
	parallelMinChunkWork = 1 << 15
	os.Exit(m.Run())
}
