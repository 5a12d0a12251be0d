package simclock

import (
	"math"
	"testing"
)

// FuzzParseModel: ParseModel faces the -latency-model flag. On arbitrary input
// it must never panic, and an accepted model carries no NaN — the one value
// range guards written as comparisons let through — and can be sampled.
func FuzzParseModel(f *testing.F) {
	for _, s := range []string{
		"", "zero", "const:1.5", "uniform:0.5,2", "straggler:0.5,2,0.15,8", "uniform: 0.5 , 2 ",
		"const:nan", "uniform:nan,nan", "straggler:0,1,nan,2", "const:-1", "uniform:2,1", "const:inf",
		"uniform:0,inf", "straggler:0.5,2,0.5,inf", "const:-inf",
		"zero:1", "const", "const:1,2", "bogus:1", ":", "uniform:,", "straggler:0.5,2,0.15,0.5",
	} {
		f.Add(s, uint64(42))
	}
	f.Fuzz(func(t *testing.T, spec string, seed uint64) {
		m, err := ParseModel(spec, seed)
		if err != nil {
			return
		}
		var params []float64
		switch lm := m.(type) {
		case Constant:
			params = []float64{lm.D}
		case Uniform:
			params = []float64{lm.Lo, lm.Hi}
		case StragglerTail:
			params = []float64{lm.Lo, lm.Hi, lm.TailProb, lm.TailFactor}
		default:
			t.Fatalf("ParseModel(%q) returned %T", spec, m)
		}
		for _, p := range params {
			if math.IsNaN(p) || math.IsInf(p, 0) {
				t.Fatalf("ParseModel(%q) accepted a non-finite parameter: %+v", spec, m)
			}
		}
		m.Sample(3, 7)
	})
}
