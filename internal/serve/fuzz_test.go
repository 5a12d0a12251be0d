package serve

import (
	"math"
	"testing"
)

// The three parsers below face flserve's -arrival-model, -admission and
// -flush flags. On arbitrary input each must never panic; what each accepts
// is held to the strongest property its type offers.

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
