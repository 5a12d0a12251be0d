package serve

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// histBuckets spans 2^histMinExp up to 2^(histMinExp+histBuckets-2) in
// power-of-two buckets, with bucket 0 catching everything below and the last
// bucket everything above — wide enough for any virtual latency a sane
// service model produces.
const (
	histBuckets = 64
	histMinExp  = -30
)

// Histogram is a fixed power-of-two-bucket latency histogram. Bucketing uses
// math.Frexp — pure exponent extraction, no transcendental whose libm could
// vary — so two runs with identical latencies produce byte-identical String
// output; the CI smoke diffs exactly that.
type Histogram struct {
	counts [histBuckets]int64
	total  int64
}

// Add records one latency observation.
func (h *Histogram) Add(d float64) {
	h.counts[bucketOf(d)]++
	h.total++
}

// bucketOf maps a latency to its bucket: b such that d ∈ [2^(histMinExp+b-1),
// 2^(histMinExp+b)), clamped at both ends.
func bucketOf(d float64) int {
	if d <= 0 {
		return 0
	}
	_, exp := math.Frexp(d) // d = frac × 2^exp, frac ∈ [0.5, 1)
	b := exp - histMinExp
	if b < 0 {
		return 0
	}
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() int64 { return h.total }

// Equal reports whether two histograms are identical bucket by bucket.
func (h *Histogram) Equal(o *Histogram) bool { return h.counts == o.counts && h.total == o.total }

// String renders the non-empty buckets as "[lo, hi): count" lines — the
// bit-diffable artifact the CI smoke compares across runs.
func (h *Histogram) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "latency histogram (%d requests)\n", h.total)
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		lo := math.Ldexp(1, histMinExp+i-1)
		hi := math.Ldexp(1, histMinExp+i)
		switch i {
		case 0:
			fmt.Fprintf(&b, "  [0, %g): %d\n", hi, c)
		case histBuckets - 1:
			fmt.Fprintf(&b, "  [%g, +inf): %d\n", lo, c)
		default:
			fmt.Fprintf(&b, "  [%g, %g): %d\n", lo, hi, c)
		}
	}
	return b.String()
}

// staleBuckets sizes the served-version staleness histogram: buckets 0
// through staleBuckets-2 count exact staleness values, the last bucket
// catches everything at or beyond staleBuckets-1.
const staleBuckets = 16

// StalenessHist counts served requests by served-version staleness — how
// many versions the store had accepted beyond the version that served the
// request, measured at completion. Fixed-size (and so comparable) like
// Histogram; the last bucket is an overflow bucket.
type StalenessHist [staleBuckets]int64

// add records n requests served at the given staleness.
func (h *StalenessHist) add(stale int, n int64) {
	if stale < 0 {
		stale = 0
	}
	if stale >= staleBuckets {
		stale = staleBuckets - 1
	}
	h[stale] += n
}

// String renders the non-empty buckets on one line ("0:481 1:17 15+:2").
func (h *StalenessHist) String() string {
	var b strings.Builder
	b.WriteString("staleness histogram:")
	for i, c := range h {
		if c == 0 {
			continue
		}
		if i == staleBuckets-1 {
			fmt.Fprintf(&b, " %d+:%d", i, c)
		} else {
			fmt.Fprintf(&b, " %d:%d", i, c)
		}
	}
	b.WriteByte('\n')
	return b.String()
}

// Report is one load run's deterministic summary: throughput and exact
// order-statistic latency quantiles in virtual time, batching efficiency,
// and an FNV-1a digest of every request's output in request order — the
// value two runs (or two intra-op budgets) must reproduce bit-for-bit.
type Report struct {
	// Requests counts every finished request, served or shed; Served only
	// those that completed service (latency stats cover exactly these).
	Requests int
	Served   int
	// ShedQueue/ShedDeadline count admission rejections: arrivals refused at
	// a full pending queue, and queued requests dropped at service start
	// because their wait blew the deadline. Reissues counts closed-loop
	// clients that immediately re-entered after a shed; MaxQueue is the
	// peak pending depth (forming batch plus flushed queue). All zero when
	// admission control is off.
	ShedQueue    int
	ShedDeadline int
	Reissues     int
	MaxQueue     int
	// Batches counts batches that completed service; a fully-deadline-shed
	// batch never reaches a worker and is not counted. MeanBatch averages
	// the served (post-shed) sizes of those batches.
	Batches     int
	MeanBatch   float64
	VirtualTime float64
	// Throughput is Served / VirtualTime (virtual requests per time unit).
	Throughput  float64
	MeanLatency float64
	// P50/P95/P99 are exact nearest-rank order statistics over the served
	// latencies: the smallest latency with at least ⌈q·n⌉ observations at
	// or below it.
	P50, P95, P99 float64
	OutputDigest  uint64
	Hist          Histogram
	// Served-version staleness, tracked only by wired train-while-serve runs
	// (StaleTracked gates both rendering and the digest fold, so unwired
	// load reports stay byte-identical to the pre-wiring harness): per
	// served request, how many versions the store had accepted beyond the
	// version that served it, measured at completion.
	StaleTracked       bool
	StaleMin, StaleMax int
	StaleMean          float64
	StaleHist          StalenessHist
}

// quantiles fills the report's latency summary from the raw per-request
// latencies (exact sorted order statistics, not histogram interpolation).
// The mean is summed in sorted order, so it is one fixed float64 for a given
// multiset of latencies. lat's contents are consumed as sort scratch.
func (r *Report) quantiles(lat []float64) {
	if len(lat) == 0 {
		return
	}
	sorted := sortLatencies(lat)
	var sum float64
	for _, d := range sorted {
		sum += d
	}
	r.MeanLatency = sum / float64(len(sorted))
	pick := func(q float64) float64 {
		// Nearest rank: index ⌈q·n⌉-1 (clamped). Flooring q·(n-1) instead
		// reads a systematically low order statistic — p99 of 500 requests
		// picked index 494, which is ~p98.8.
		idx := int(math.Ceil(q*float64(len(sorted)))) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(sorted) {
			idx = len(sorted) - 1
		}
		return sorted[idx]
	}
	r.P50, r.P95, r.P99 = pick(0.50), pick(0.95), pick(0.99)
}

// radixBits is sortLatencies' digit width: six passes cover the 63 bits
// below the sign, and 2048 counters per digit stay cache-resident.
const (
	radixBits = 11
	radixMask = 1<<radixBits - 1
)

// sortLatencies returns lat's values in ascending order — exactly the slice
// sort.Float64s produces — in O(n): an LSD radix sort on the float64 bit
// patterns, skipping every digit position no key varies in. Non-negative
// finite floats order like their bits, and equal ones have equal bits, so
// the sorted slice is unique. A key with the sign bit set (negative, -0) or
// an all-ones exponent (Inf, NaN) sends the whole slice to sort.Float64s
// instead. lat is overwritten: sorted in place on that path, and on the radix
// path the passes alternate between it and one new buffer.
func sortLatencies(lat []float64) []float64 {
	if len(lat) < 2 {
		return lat
	}
	var counts [6][1 << radixBits]int
	for _, d := range lat {
		b := math.Float64bits(d)
		if b >= 0x7ff0000000000000 {
			sort.Float64s(lat)
			return lat
		}
		counts[0][b&radixMask]++
		counts[1][b>>radixBits&radixMask]++
		counts[2][b>>(2*radixBits)&radixMask]++
		counts[3][b>>(3*radixBits)&radixMask]++
		counts[4][b>>(4*radixBits)&radixMask]++
		counts[5][b>>(5*radixBits)]++
	}
	first := math.Float64bits(lat[0])
	src, dst := lat, make([]float64, len(lat))
	for p := range counts {
		shift := radixBits * p
		c := &counts[p]
		if c[first>>shift&radixMask] == len(lat) {
			continue // every key has this digit
		}
		sum := 0
		for i, n := range c {
			c[i], sum = sum, sum+n
		}
		for _, d := range src {
			k := math.Float64bits(d) >> shift & radixMask
			dst[c[k]] = d
			c[k]++
		}
		src, dst = dst, src
	}
	return src
}

// String renders the summary; like the histogram it is deterministic, so the
// CI smoke can diff two runs' full stdout.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "requests=%d batches=%d mean_batch=%.6g\n", r.Requests, r.Batches, r.MeanBatch)
	fmt.Fprintf(&b, "virtual_time=%.6g throughput=%.6g req/unit\n", r.VirtualTime, r.Throughput)
	fmt.Fprintf(&b, "latency mean=%.6g p50=%.6g p95=%.6g p99=%.6g\n", r.MeanLatency, r.P50, r.P95, r.P99)
	fmt.Fprintf(&b, "admission served=%d shed_queue=%d shed_deadline=%d reissues=%d max_queue=%d\n",
		r.Served, r.ShedQueue, r.ShedDeadline, r.Reissues, r.MaxQueue)
	if r.StaleTracked {
		fmt.Fprintf(&b, "staleness served min=%d mean=%.6g max=%d\n", r.StaleMin, r.StaleMean, r.StaleMax)
		b.WriteString(r.StaleHist.String())
	}
	fmt.Fprintf(&b, "output_digest=%016x\n", r.OutputDigest)
	b.WriteString(r.Hist.String())
	return b.String()
}
