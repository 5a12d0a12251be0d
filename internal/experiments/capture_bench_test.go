package experiments

import (
	"fmt"
	"testing"

	"heteroswitch/internal/dataset"
)

// BenchmarkBuildDeviceData is paper_table4's set-up (12 classes × (8+2)
// scenes × 9 devices = 1080 captures) at the benchmark's worker count and at
// one worker; -benchmem gives the bytes and mallocs per call CHANGES.md quotes.
func BenchmarkBuildDeviceData(b *testing.B) {
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opts := DefaultOptions()
			opts.Workers = workers
			b.ReportAllocs()
			for b.Loop() {
				if _, err := BuildDeviceData(opts, 8, 2, dataset.ModeProcessed); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
