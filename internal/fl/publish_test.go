package fl

import (
	"testing"

	"heteroswitch/internal/nn"
)

// OnPublish is the training→serving wiring point: it must fire synchronously
// from finalizeWindow, exactly once per installed global version, carrying
// the freshly installed weights and the window's finalize instant.
func TestOnPublishFiresPerInstalledVersion(t *testing.T) {
	srv := asyncFixtureServer(t, FedAvg{}, AsyncConfig{}, 1)
	type pub struct {
		version int
		vtime   float64
	}
	var pubs []pub
	srv.OnPublish = func(v int, w nn.Weights, vt float64) {
		if !sharesStorage(w, srv.Global) {
			t.Fatal("hook weights are not the freshly installed global")
		}
		if v != srv.version {
			t.Fatalf("hook version %d != server version %d", v, srv.version)
		}
		pubs = append(pubs, pub{v, vt})
	}
	var stats []RoundStats
	srv.Run(func(st RoundStats) { stats = append(stats, st) })

	if len(pubs) == 0 {
		t.Fatal("OnPublish never fired")
	}
	if len(pubs) != srv.version {
		t.Fatalf("%d publishes for %d installed versions", len(pubs), srv.version)
	}
	for i, p := range pubs {
		if p.version != i+1 {
			t.Fatalf("publish %d carries version %d; versions must be sequential", i, p.version)
		}
		if i > 0 && p.vtime < pubs[i-1].vtime {
			t.Fatalf("publish times regress: %g after %g", p.vtime, pubs[i-1].vtime)
		}
	}
	// Every window installed a version here, so publish instants line up with
	// the windows' reported virtual times one to one.
	if len(pubs) == len(stats) {
		for i := range pubs {
			if pubs[i].vtime != stats[i].VirtualTime {
				t.Fatalf("publish %d at vtime %g, window reported %g", i, pubs[i].vtime, stats[i].VirtualTime)
			}
		}
	}
}

// The hook must not perturb training: a run with a hook installed produces
// bit-identical globals to one without.
func TestOnPublishIsObservationOnly(t *testing.T) {
	plain := asyncFixtureServer(t, FedAvg{}, AsyncConfig{}, 1)
	plain.Run(nil)
	hooked := asyncFixtureServer(t, FedAvg{}, AsyncConfig{}, 1)
	fired := 0
	hooked.OnPublish = func(int, nn.Weights, float64) { fired++ }
	hooked.Run(nil)
	if fired == 0 {
		t.Fatal("hook never fired")
	}
	if plain.version != hooked.version {
		t.Fatalf("version drift: %d vs %d", plain.version, hooked.version)
	}
	requireBitIdentical(t, plain.Global, hooked.Global, "hooked vs plain global")
}
