package serve

import (
	"encoding/binary"
	"math"
	"sort"
	"testing"
)

// The three parsers below face flserve's -arrival-model, -admission and
// -flush flags. On arbitrary input each must never panic; what each accepts
// is held to the strongest property its type offers. FuzzLatencyQuantiles
// holds the report's radix sort to sort.Float64s.

// FuzzParseArrival: an accepted arrival model carries no NaN — the one value
// range guards written as comparisons let through — and can be sampled.
func FuzzParseArrival(f *testing.F) {
	for _, s := range []string{
		"", "closed", "closed:0.5", "closed:0", "open:4", "open: 2.5 ",
		"closed:nan", "open:nan", "open:0", "open", "closed:-1", "open:inf", "bogus:1", ":", "closed:1,2",
	} {
		f.Add(s, uint64(42))
	}
	f.Fuzz(func(t *testing.T, spec string, seed uint64) {
		m, err := ParseArrival(spec, seed)
		if err != nil {
			return
		}
		switch am := m.(type) {
		case ClosedLoop:
			if math.IsNaN(am.Think) || !m.Closed() {
				t.Fatalf("ParseArrival(%q) accepted %+v", spec, am)
			}
		case OpenLoop:
			if math.IsNaN(am.Rate) || m.Closed() {
				t.Fatalf("ParseArrival(%q) accepted %+v", spec, am)
			}
		default:
			t.Fatalf("ParseArrival(%q) returned %T", spec, m)
		}
		m.Delay(3, 7)
	})
}

// FuzzParseAdmission: an accepted admission config is one Config.validate
// accepts too, so a spec that parses never fails later in NewServer.
func FuzzParseAdmission(f *testing.F) {
	for _, s := range []string{
		"", "off", "64,12", "0,0", " 12 , 8.5 ", "12", "12,", ",8", "-1,8", "12,-1", "12,nan", "12,inf",
		"1e3,1", "9223372036854775808,1", "a,b", ",", "1,2,3",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		a, err := ParseAdmission(spec)
		if err != nil {
			return
		}
		if err := (Config{Admission: a}).withDefaults().validate(); err != nil {
			t.Fatalf("ParseAdmission(%q) = %+v, which NewServer rejects: %v", spec, a, err)
		}
	})
}

// FuzzLatencyQuantiles: on finite non-negative latencies — duplicates,
// subnormals, +0, n = 0 and 1 included — the radix sort returns the slice
// sort.Float64s does, and the report's mean and quantiles match the
// sort.Float64s reference bit for bit. The raw bit patterns (negatives, -0,
// Inf, NaN) take the fallback and must match it too.
func FuzzLatencyQuantiles(f *testing.F) {
	enc := func(vals ...float64) []byte {
		b := make([]byte, 0, 8*len(vals))
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add([]byte{})
	f.Add(enc(3.5))
	f.Add(enc(2, 1, 2, 0, 1, 2))
	f.Add(enc(5e-324, 0, 1e-310, math.SmallestNonzeroFloat64, 2.2250738585072014e-308))
	f.Add(enc(6.27, 6.51, 0.25, 8.13, 8.56, 1e300, math.MaxFloat64, 4.9))
	f.Add(enc(1, math.Copysign(0, -1), -2, math.Inf(1), math.NaN(), 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		raw := make([]float64, len(data)/8)
		clean := make([]float64, len(raw))
		for i := range raw {
			b := binary.LittleEndian.Uint64(data[8*i:])
			raw[i] = math.Float64frombits(b)
			b &^= 1 << 63 // non-negative
			if b>>52 == 0x7ff {
				b &^= 1 << 62 // finite: Inf and NaN become ordinary floats
			}
			clean[i] = math.Float64frombits(b)
		}
		want := append([]float64(nil), clean...)
		sort.Float64s(want)
		got := sortLatencies(append([]float64(nil), clean...))
		if len(got) != len(want) {
			t.Fatalf("sorted %d keys into %d", len(want), len(got))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("sorted[%d] = %v, sort.Float64s has %v", i, got[i], want[i])
			}
		}
		for _, lat := range [][]float64{clean, raw} {
			var r Report
			r.quantiles(append([]float64(nil), lat...))
			ref := refQuantiles(lat)
			for _, p := range [][2]float64{{r.MeanLatency, ref.MeanLatency}, {r.P50, ref.P50}, {r.P95, ref.P95}, {r.P99, ref.P99}} {
				if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
					t.Fatalf("mean/p50/p95/p99 %v %v %v %v, reference %v %v %v %v",
						r.MeanLatency, r.P50, r.P95, r.P99, ref.MeanLatency, ref.P50, ref.P95, ref.P99)
				}
			}
		}
	})
}

// refQuantiles is Report.quantiles on sort.Float64s: the reference the radix
// sort must reproduce.
func refQuantiles(lat []float64) Report {
	var r Report
	if len(lat) == 0 {
		return r
	}
	sorted := append([]float64(nil), lat...)
	sort.Float64s(sorted)
	var sum float64
	for _, d := range sorted {
		sum += d
	}
	r.MeanLatency = sum / float64(len(sorted))
	pick := func(q float64) float64 {
		return sorted[min(max(int(math.Ceil(q*float64(len(sorted))))-1, 0), len(sorted)-1)]
	}
	r.P50, r.P95, r.P99 = pick(0.50), pick(0.95), pick(0.99)
	return r
}

// FuzzParseFlush: an accepted policy survives String() → ParseFlush unchanged
// (String is how flserve echoes a non-default policy).
func FuzzParseFlush(f *testing.F) {
	for _, s := range []string{"", "fifo", "edf", "deadline", " EDF ", "FiFo", "lifo", "edf,fifo", "\x00"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParseFlush(spec)
		if err != nil {
			return
		}
		again, err := ParseFlush(p.String())
		if err != nil || again != p {
			t.Fatalf("ParseFlush(%q) = %v, but String() %q parses to %v, %v", spec, p, p, again, err)
		}
	})
}
