package fl

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sync"
	"testing"

	"heteroswitch/internal/dataset"
	"heteroswitch/internal/nn"
)

// The sampler once flipped a per-client dropout coin after each draw; with
// the coin off it consumed nothing, and with the coin gone the stream must
// still be that one: one Choice per round. The digest was recorded on the
// last tree that had the coin (dropout 0).
func TestSamplingStreamPinned(t *testing.T) {
	srv := fixtureServer(t, FedAvg{}, 1)
	h := fnv.New64a()
	srv.Run(func(s RoundStats) {
		if s.Round == 0 && !slices.Equal(s.Sampled, []int{2, 1, 0, 5}) {
			t.Fatalf("round 0 sampled %v, want [2 1 0 5]", s.Sampled)
		}
		for _, id := range s.Sampled {
			fmt.Fprintf(h, "%d,", id)
		}
		fmt.Fprint(h, ";")
	})
	if got := h.Sum64(); got != 0x90f174448dbf5508 {
		t.Fatalf("sampling stream digest %016x, want 90f174448dbf5508", got)
	}
}

func TestCommunicationAccounting(t *testing.T) {
	srv := fixtureServer(t, FedAvg{}, 1)
	wb := weightBytes(srv.Global)
	if wb <= 0 {
		t.Fatal("weight bytes must be positive")
	}
	stats := srv.RunRound(0)
	wantDown := wb * int64(srv.Cfg.ClientsPerRound)
	if stats.BytesDown != wantDown || stats.BytesUp != wantDown {
		t.Fatalf("bytes down/up = %d/%d, want %d", stats.BytesDown, stats.BytesUp, wantDown)
	}
}

// A round has K steps to train, so the barrier server builds at most K
// replicas, whatever Workers asks for, a ring of min(4W, K) scratch sets and
// one accumulator.
func TestServerBuildsAtMostKReplicas(t *testing.T) {
	for _, c := range []struct{ workers, k, want, ring int }{
		{8, 4, 4, 4}, {4, 4, 4, 4}, {3, 4, 3, 4}, {0, 4, 1, 4},
		{1, 6, 1, 4}, {2, 6, 2, 6}, {0, 10, 1, 4}, {2, 10, 2, 8}, {3, 10, 3, 10},
	} {
		srv := skewedServer(t, FedAvg{}, c.workers, c.k)
		if len(srv.nets) != c.want || len(srv.scratch) != c.ring || srv.acc == nil {
			t.Fatalf("Workers %d, K %d: %d replicas, %d scratch sets, accumulator %v; want %d, %d and one",
				c.workers, c.k, len(srv.nets), len(srv.scratch), srv.acc, c.want, c.ring)
		}
		srv.RunRound(0)
	}
}

// skewedSizes spreads client sizes over 4–96 samples, as perfbook's
// paper_table4 population does, so a client takes 1 to 10 local steps.
var skewedSizes = []int{4, 40, 8, 96, 12, 4, 60, 20, 4, 32, 80, 16, 8, 48, 4, 24}

// skewedServer is a barrier server over len(skewedSizes) clients of those
// sizes, drawing k a round.
func skewedServer(t testing.TB, strat Strategy, workers, k int) *Server {
	t.Helper()
	pool := fixtureData(96, 3)
	clients := make([]*Client, len(skewedSizes))
	for i, n := range skewedSizes {
		ds := pool[i%2]
		clients[i] = NewClient(i, i%2, &dataset.Dataset{NumClasses: ds.NumClasses, Samples: ds.Samples[:n]}, 7)
	}
	cfg := Config{
		Rounds: 6, ClientsPerRound: k, BatchSize: 10, LocalEpochs: 1,
		LR: 0.2, Seed: 11, Workers: workers,
	}
	srv, err := NewServer(cfg, fixtureBuilder(5), nn.SoftmaxCrossEntropy{}, strat, clients)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// recording is FedAvg whose accumulator appends every folded client's ID to
// folded, under a mutex, so a fold from any goroutine is seen; with trained
// set, every LocalUpdate appends its client's ID there too.
type recording struct {
	FedAvg
	mu              *sync.Mutex
	folded, trained *[]int
}

func (r recording) LocalUpdate(ctx *ClientContext) ClientResult {
	if r.trained != nil {
		r.mu.Lock()
		*r.trained = append(*r.trained, ctx.Client.ID)
		r.mu.Unlock()
	}
	return r.FedAvg.LocalUpdate(ctx)
}

func (r recording) NewAccumulator(global nn.Weights, cfg Config) Accumulator {
	return recordingAccumulator{r.FedAvg.NewAccumulator(global, cfg), r}
}

type recordingAccumulator struct {
	Accumulator
	r recording
}

func (a recordingAccumulator) Fold(res ClientResult, scale float64) {
	a.r.mu.Lock()
	*a.r.folded = append(*a.r.folded, res.ClientID)
	a.r.mu.Unlock()
	a.Accumulator.Fold(res, scale)
}

// The barrier server folds every round in sampling order at every worker
// count: Workers only changes which replica trains a client, and when, never
// the order its result reaches the accumulator. On a skewed population the
// claims run costliest first, and at Workers = 1 the training order is the
// costliest-first order within the ring of min(4, K) sets.
func TestServerFoldsInSamplingOrder(t *testing.T) {
	for workers := 1; workers <= 4; workers++ {
		var folded, trained []int
		r := recording{mu: new(sync.Mutex), folded: &folded, trained: &trained}
		for _, srv := range []*Server{fixtureServer(t, r, workers), skewedServer(t, r, workers, 10)} {
			srv.Run(func(st RoundStats) {
				if !slices.Equal(folded, st.Sampled) {
					t.Fatalf("workers %d, round %d: folded %v, sampled %v", workers, st.Round, folded, st.Sampled)
				}
				if want := costliestFirst(srv.Clients, st.Sampled, len(srv.scratch)); workers == 1 && !slices.Equal(trained, want) {
					t.Fatalf("round %d at one replica: trained %v, want costliest first %v", st.Round, trained, want)
				}
				folded, trained = folded[:0], trained[:0]
			})
		}
	}
}

// costliestFirst is the order one replica trains a window of distinct
// clients (by ID, which indexes clients) in: fold the step at the cursor once trained, otherwise train the
// largest untrained client in [cursor, cursor+ring), the earlier on a tie.
func costliestFirst(clients []*Client, window []int, ring int) []int {
	var order []int
	done := make([]bool, len(window))
	for cursor := 0; cursor < len(window); {
		if done[cursor] {
			cursor++
			continue
		}
		best := -1
		for i := cursor; i < min(len(window), cursor+ring); i++ {
			if !done[i] && (best < 0 || clients[window[i]].Data.Len() > clients[window[best]].Data.Len()) {
				best = i
			}
		}
		done[best] = true
		order = append(order, window[best])
	}
	return order
}

// claim hands out the costliest unclaimed step of the ring's span, the lower
// index on a tie, never a step outside [folded, folded+len(scratch)), and
// never a step whose client has an earlier unfolded step in the window.
func TestClaimTakesCostliestInRing(t *testing.T) {
	client := func(id, n int) *Client {
		return &Client{ID: id, Data: &dataset.Dataset{Samples: make([]dataset.Sample, n)}}
	}
	window := func(e *engine, ring int, cs ...*Client) {
		e.steps = e.steps[:0]
		for _, c := range cs {
			e.steps = append(e.steps, step{client: c, scale: 1})
		}
		e.scratch = make([]nn.Weights, ring)
		e.exec = execState{}
	}
	// fold marks every training step trained and moves the fold cursor over
	// the trained prefix.
	fold := func(e *engine) {
		for i := range e.steps {
			if e.steps[i].training {
				e.steps[i].ready = true
			}
		}
		for e.exec.folded < len(e.steps) && e.steps[e.exec.folded].ready {
			e.exec.folded++
		}
	}
	var e engine
	sizes := []int{3, 9, 5, 9, 1, 8, 2, 8, 6}
	var cs []*Client
	for i, n := range sizes {
		cs = append(cs, client(i, n))
	}
	window(&e, 4, cs...)
	var got []int
	for e.exec.folded < len(e.steps) {
		i := e.claim()
		if i < 0 {
			fold(&e)
			continue
		}
		if i < e.exec.folded || i >= e.exec.folded+len(e.scratch) {
			t.Fatalf("claimed step %d outside the ring's span [%d, %d)", i, e.exec.folded, e.exec.folded+len(e.scratch))
		}
		got = append(got, i)
	}
	// [0,4) gives 1, 3 (9 before 9 by index), 2, 0; [4,8) gives 5, 7 (8
	// before 8 by index), 6, 4; then 8.
	if want := []int{1, 3, 2, 0, 5, 7, 6, 4, 8}; !slices.Equal(got, want) {
		t.Fatalf("claim order %v, want %v", got, want)
	}

	// A and a larger B between its two steps: the second A waits for the
	// first to fold, not merely to train, while B goes first.
	a, b := client(0, 2), client(1, 9)
	window(&e, 3, a, b, a)
	if i := e.claim(); i != 1 {
		t.Fatalf("first claim %d, want the larger client's step 1", i)
	}
	if i := e.claim(); i != 0 {
		t.Fatalf("second claim %d, want step 0", i)
	}
	if i := e.claim(); i != -1 {
		t.Fatalf("claimed %d while the client's step 0 trains", i)
	}
	e.steps[0].ready = true
	if i := e.claim(); i != -1 {
		t.Fatalf("claimed %d while the client's step 0 is trained but unfolded", i)
	}
	e.exec.folded = 1
	if i := e.claim(); i != 2 {
		t.Fatalf("claim after the fold %d, want step 2", i)
	}
	if i := e.claim(); i != -1 || e.exec.next != len(e.steps) {
		t.Fatalf("claim %d with next %d once every step is claimed, want -1 and %d", i, e.exec.next, len(e.steps))
	}

	// An earlier step of the client at scale 0 is never trained, so it
	// holds nothing.
	window(&e, 3, a, b, a)
	e.steps[0].scale, e.steps[0].ready = 0, true
	if i, j := e.claim(), e.claim(); i != 1 || j != 2 {
		t.Fatalf("claims %d, %d past a skipped step of the client, want 1, 2", i, j)
	}
}
