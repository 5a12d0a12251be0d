package serve

import (
	"fmt"
	"hash/fnv"
	"testing"
)

// simRun is perfbook's serve_sim configuration: a 16-to-3 dense net on 1×4×4
// inputs, so inference is negligible and the scheduler dominates; EDF flush,
// admission 32/6, MaxBatch 8, budget 1, a republish every 5 batches, and
// 100 000 requests. The open arm is serve_sim itself (rate 4.6, near
// saturation, both shed paths fire); the closed arm swaps in 48 clients that
// think for 4 units on average.
func simRun(tb testing.TB, seed uint64, closed bool) (*Server, LoadConfig) {
	tb.Helper()
	srv := denseServer(tb, seed, Config{
		MaxBatch: 8, BatchBudget: 1, Workers: 2, IntraOp: 2,
		Admission: AdmissionConfig{Depth: 32, Deadline: 6},
		Flush:     FlushEDF,
	})
	lc := LoadConfig{
		Requests:     100000,
		Arrival:      OpenLoop{Rate: 4.6, Seed: seed ^ 0xa11ce},
		Service:      AffineService{Base: 1, PerItem: 0.25},
		Seed:         seed,
		PublishEvery: 5,
		Inputs:       denseInputs(seed),
	}
	if closed {
		lc.Arrival, lc.Concurrency = ClosedLoop{Think: 4, Seed: seed ^ 0xa11ce}, 48
	}
	return srv, lc
}

// pinnedSimReports are fnv64a digests of the whole Report (%+v: every
// counter, the quantiles and mean as shortest round-trip floats, the
// histogram buckets, the output digest) of simRun at seed 42, recorded on the
// commit before the event slab and the radix-sorted quantiles.
var pinnedSimReports = map[string]string{
	"open":   "7dd68bbe01f3cedd",
	"closed": "18f6dd573d7d5478",
}

// TestPinnedSimReports: the load harness's bookkeeping — how events carry
// their payloads, how latencies are sorted — may change; not one bit of what
// it reports may.
func TestPinnedSimReports(t *testing.T) {
	for _, kind := range []string{"open", "closed"} {
		srv, lc := simRun(t, 42, kind == "closed")
		rep, err := srv.RunLoad(lc)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		fmt.Fprintf(h, "%+v", rep)
		if got, want := fmt.Sprintf("%016x", h.Sum64()), pinnedSimReports[kind]; got != want {
			t.Errorf("%s: report digest %s, was pinned as %s\n%s", kind, got, want, rep)
		}
		if rep.ShedQueue == 0 || rep.ShedDeadline == 0 {
			t.Errorf("%s: shed %d by queue depth and %d by deadline; the pin must cover both", kind, rep.ShedQueue, rep.ShedDeadline)
		}
	}
}

// BenchmarkRunLoad times one RunLoad of serve_sim's configuration (open
// arm): ns/request is the scheduler's cost per simulated request.
func BenchmarkRunLoad(b *testing.B) {
	srv, lc := simRun(b, 42, false)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := srv.RunLoad(lc); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*lc.Requests), "ns/request")
}
