package faults

import "testing"

// FuzzParseSpec: ParseSpec faces the -faults flag. On arbitrary input it must
// never panic, and whatever it accepts must survive String() → ParseSpec
// unchanged (String is how flsim echoes the model it runs).
func FuzzParseSpec(f *testing.F) {
	for _, s := range []string{
		"", "none", "crash:0.1", "flaky:0.2,2", "corrupt:0.05,mix", "churn:40,0.6",
		"crash:0.1+flaky:0.2,2+corrupt:0.05,mix+churn:40,0.6", " crash:1 + corrupt:1e-9,nan ",
		"crash:nan", "crash:0", "flaky:0.5,1e300", "flaky:0.5,1.5", "corrupt:0.5,0.5", "churn:inf,0.5",
		"crash:0.1+crash:0.2", "bogus:1", "crash", ":", "+", "crash:0.1,0.2", "corrupt:0.3,NAN",
	} {
		f.Add(s, uint64(42))
	}
	f.Fuzz(func(t *testing.T, spec string, seed uint64) {
		m, err := ParseSpec(spec, seed)
		if err != nil {
			return
		}
		again, err := ParseSpec(m.String(), seed)
		if err != nil {
			t.Fatalf("ParseSpec(%q) accepted, but its String() %q does not parse: %v", spec, m, err)
		}
		if (m == nil) != (again == nil) || (m != nil && *m != *again) {
			t.Fatalf("ParseSpec(%q) = %+v, but String() %q parses to %+v", spec, m, m, again)
		}
	})
}
