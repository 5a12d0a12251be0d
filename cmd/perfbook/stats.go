package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sort"
	"time"

	"heteroswitch/internal/nn"
	"heteroswitch/internal/tensor"
)

// percentile returns the nearest-rank order statistic of vs at quantile q:
// the element at index ceil(q·n)−1 of the sorted values (clamped), the same
// rule serve.Report uses for its virtual latencies. vs is not modified.
func percentile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), vs...)
	sort.Float64s(sorted)
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	idx = max(0, min(idx, len(sorted)-1))
	return sorted[idx]
}

// median is the arithmetic median (mean of the two middle values for even
// n), used for summaries across passes and probe iterations.
func median(vs []float64) float64 {
	n := len(vs)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), vs...)
	sort.Float64s(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

func minMax(vs []float64) (lo, hi float64) {
	if len(vs) == 0 {
		return 0, 0
	}
	lo, hi = vs[0], vs[0]
	for _, v := range vs[1:] {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	return lo, hi
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// weightsDigest is the FNV-1a hash of every parameter and state value in
// order, and reports whether all of them are finite.
func weightsDigest(w nn.Weights) (digest uint64, finite bool) {
	h := fnv.New64a()
	finite = true
	var buf [4]byte
	for _, set := range [][]*tensor.Tensor{w.Params, w.States} {
		for _, t := range set {
			for _, v := range t.Data() {
				if v != v || v > math.MaxFloat32 || v < -math.MaxFloat32 {
					finite = false
				}
				binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
				h.Write(buf[:])
			}
		}
	}
	return h.Sum64(), finite
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
