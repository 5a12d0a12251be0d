// Package fl implements the federated-learning engine of the paper's
// evaluation over a population of device-typed clients, with pluggable
// aggregation strategies (FedAvg, FedProx, q-FedAvg, SCAFFOLD — the baselines
// of §6.2) and a LocalUpdate extension point that HeteroSwitch
// (internal/core) plugs into.
//
// There is one aggregation core (engine.go): the client-sampling stream, the
// client step — train, corrupt, gate, fold — the training replicas, the one
// accumulator, the window executor whose replicas claim and train a window's
// steps costliest first within a ring of min(4W, window) scratch sets while
// replica 0, on the calling goroutine, folds them in window order, and the
// RoundStats accounting. Two drivers plan windows for it
// and are otherwise thin: Server is the paper's synchronous round (the K
// clients it draws are the window), AsyncServer a staleness-aware event loop
// on a simulated clock (the window is its next Buffer completions). Every
// strategy, and every comparison between strategies, therefore passes
// through the same step, the same fold and the same accounting.
//
// Determinism: given the same Config.Seed, population, and strategy, every
// run produces identical results even with Workers > 1. Workers only changes
// which replica trains a step, never the fold order — sampling order on the
// barrier server, event order on the event loop — so both drivers' results
// are bit-identical at every Workers and IntraOp. The event loop reads no
// wall-clock time, and at zero latency it is bit-identical to the barrier
// server.
package fl

import (
	"fmt"
	"math"

	"heteroswitch/internal/dataset"
	"heteroswitch/internal/faults"
	"heteroswitch/internal/frand"
	"heteroswitch/internal/models"
	"heteroswitch/internal/nn"
)

// Config carries the FL hyperparameters. The paper's defaults (§6, App. A.2)
// are N=100 total clients, K=20 per round, B=10, E=1, η=0.1, T=1000.
type Config struct {
	Rounds          int     // T: communication rounds
	ClientsPerRound int     // K: participants per round
	BatchSize       int     // B: local minibatch size
	LocalEpochs     int     // E: local epochs
	LR              float64 // η: local learning rate (plain SGD, the paper's setup)
	Seed            uint64  // master seed
	// Workers is the number of parallel client trainers, each with its own
	// replica (<=1 means serial): at most ClientsPerRound of them on the
	// barrier server and AsyncConfig.Buffer on the event loop. It is the one
	// training-parallelism knob; every replica trains on the serial kernels.
	// Both drivers fold a window's results in window order on one goroutine,
	// so their results never depend on Workers:
	// TestSyncPinsHoldAtEveryWorkerCount and
	// TestAsyncPinsHoldAtEveryWorkerCount hold the pinned bytes at 1–4.
	Workers int
	// IntraOp is the total parallelism budget of the replicas' frozen
	// (evaluation) forward, e.g. fl.EvalLoss: the number of cores it may
	// occupy across all replicas combined. It splits a batch's conv
	// iterations (samples × groups); a batch-1 forward runs on one core.
	// 0 means auto (GOMAXPROCS). The server grants each replica an equal
	// share (at least 1). Training never reads it, and results are
	// bit-identical at every setting.
	IntraOp int
	// Faults injects seeded client failures (see internal/faults). nil
	// injects nothing: no job crashes, fails or waits out churn, and no
	// update is corrupted. The synchronous Server accepts corruption-only
	// models; crash, transient failure, and churn need the virtual-time
	// AsyncServer.
	Faults *faults.Model
	// MaxDeltaNorm arms the update-validation gate: before a client update
	// touches the global accumulator, the server checks the delta (client
	// weights minus the weights it trained from, parameters and states) and
	// rejects the update when any element is non-finite or the delta's L2
	// norm exceeds MaxDeltaNorm. 0 disables the gate entirely: it rejects
	// nothing. +Inf keeps only the non-finite check. Rejected clients are
	// listed in RoundStats.Rejected and their upload counted in BytesWasted.
	MaxDeltaNorm float64
}

// Default returns the paper's configuration with a modest round count; the
// experiments override Rounds per their scale knobs.
func Default() Config {
	return Config{
		Rounds:          100,
		ClientsPerRound: 20,
		BatchSize:       10,
		LocalEpochs:     1,
		LR:              0.1,
		Seed:            1,
		Workers:         4,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Rounds <= 0 || c.ClientsPerRound <= 0 || c.BatchSize <= 0 || c.LocalEpochs <= 0 {
		return fmt.Errorf("fl: non-positive round/client/batch/epoch config: %+v", c)
	}
	if c.LR <= 0 {
		return fmt.Errorf("fl: non-positive learning rate %v", c.LR)
	}
	if c.IntraOp < 0 {
		return fmt.Errorf("fl: negative intra-op budget %d", c.IntraOp)
	}
	if c.MaxDeltaNorm < 0 || math.IsNaN(c.MaxDeltaNorm) {
		return fmt.Errorf("fl: invalid max delta norm %v", c.MaxDeltaNorm)
	}
	return nil
}

// Client is one federated participant: a local dataset captured by a device
// of some type.
type Client struct {
	ID     int
	Device int // device profile index (groups clients for fairness metrics)
	Data   *dataset.Dataset
}

// NewClient builds a client. Its randomness is RoundRNG, a pure function of
// (ID, round), so the population seed is not part of a client's identity.
func NewClient(id, deviceIdx int, data *dataset.Dataset, _ uint64) *Client {
	return &Client{ID: id, Device: deviceIdx, Data: data}
}

// RoundRNG derives the client's deterministic RNG for a given round,
// independent of scheduling order.
func (c *Client) RoundRNG(round int) *frand.RNG {
	return frand.New(uint64(c.ID+1)*0xc2b2ae3d27d4eb4f ^ uint64(round+1)*0x9e3779b97f4a7c15)
}

// ClientContext is everything a strategy's LocalUpdate can see.
type ClientContext struct {
	Net    *nn.Network // already loaded with the round's global weights
	Global nn.Weights  // the round's global weights (read-only)
	Client *Client
	Cfg    Config
	Loss   nn.Loss
	Round  int
	RNG    *frand.RNG // deterministic per (client, round)
	// Scratch, when non-nil, points at the step's scratch weight set, which
	// the strategy may return from LocalUpdate instead of allocating a fresh
	// snapshot (via SnapshotWeights). The server's client step always sets
	// it: the set is the step's own until its result is folded into an
	// accumulator, and the next step the server runs in it starts only
	// after that fold. Only direct callers of LocalUpdate leave it nil.
	Scratch *nn.Weights
}

// SnapshotWeights returns the network's post-training weights: written into
// the step's scratch buffer when there is one (the server folds the
// result immediately, so the buffer can be recycled), or a fresh snapshot
// otherwise. Strategies should prefer this over Net.Snapshot for the
// weights they return. A scratch buffer that no longer matches the network
// is an invariant violation, reported the same way as an incompatible
// replica: by panicking.
func (ctx *ClientContext) SnapshotWeights() nn.Weights {
	if ctx.Scratch == nil {
		return ctx.Net.Snapshot()
	}
	if err := ctx.Net.SnapshotInto(*ctx.Scratch); err != nil {
		panic("fl: scratch buffer incompatible with network: " + err.Error())
	}
	return *ctx.Scratch
}

// ClientResult is what a client reports back to the server.
type ClientResult struct {
	ClientID   int
	DeviceIdx  int
	NumSamples int
	Weights    nn.Weights
	TrainLoss  float64 // running mean of batch losses (Algorithm 1's L_train)
	InitLoss   float64 // loss of the global model on the client data (L_init)
}

// Strategy couples a client-side local update rule with a server-side
// aggregation rule, expressed as a fold (see Accumulator): a round's client
// snapshots are never materialized.
type Strategy interface {
	Name() string
	// LocalUpdate trains ctx.Net (which holds the global weights) on the
	// client's data and returns the updated weights plus losses.
	LocalUpdate(ctx *ClientContext) ClientResult
	// NewAccumulator returns an empty accumulator for a window against the
	// given global weights. A server calls it once, at construction, and
	// keeps the accumulator for its whole lifetime; it is used from one
	// goroutine at a time.
	NewAccumulator(global nn.Weights, cfg Config) Accumulator
}

// RoundStats summarizes one communication round — a barrier round of Server
// or an aggregation window of AsyncServer.
type RoundStats struct {
	Round       int
	MeanLoss    float64 // sample-weighted mean of client train losses
	MeanInit    float64 // sample-weighted mean of client initial losses
	Sampled     []int   // client IDs that participated
	TotalEpochs int
	// Communication accounting: bytes broadcast to clients (down) and
	// reported back (up) this round, assuming float32 tensors on the wire.
	BytesDown int64
	BytesUp   int64
	// Rejected lists clients whose reported update failed the validation
	// gate (non-finite or norm-exploded delta, see Config.MaxDeltaNorm);
	// their upload never touches the global accumulator.
	Rejected []int
	// BytesWasted counts upload bytes the server received but discarded:
	// gate-rejected updates, and on the async server also results dropped
	// by the MaxStaleness rule. Always a subset of BytesUp.
	BytesWasted int64

	// The fields below are the event loop's observability. The barrier
	// server has no clock, no staleness and no reissue, and leaves them zero.

	// VirtualTime is the simulated clock at this aggregation, in the latency
	// model's units.
	VirtualTime float64
	// MeanStaleness is the mean number of global updates applied between
	// dispatch and arrival across this window's results; MaxStaleness the
	// worst case.
	MeanStaleness float64
	MaxStaleness  int
	// MeanDiscount is the mean staleness weight applied to this window's
	// folds (1 when nothing was stale or discounting is off).
	MeanDiscount float64
	// Version is the number of global model updates applied through this
	// aggregation.
	Version int
	// Skipped counts this window's completions whose staleness discount was 0:
	// their uploads were discarded without paying local training (the fold at
	// weight 0 is a no-op, so the result could never matter). Skipped clients
	// still appear in Sampled and in the byte accounting.
	Skipped int
	// StaleDropped counts completions discarded by the AsyncConfig.
	// MaxStaleness drop rule: like Skipped they consume a fold slot without
	// training, but their upload bytes additionally count as BytesWasted.
	StaleDropped int
	// Reissues counts timed-out attempts that were redispatched (with
	// exponential backoff) this window.
	Reissues int
	// Failed counts jobs abandoned after MaxAttempts timed-out attempts;
	// each failed client never uploads and a replacement job is admitted.
	Failed int
	// Deferred counts dispatches delayed by availability churn to the
	// client's next duty window.
	Deferred int
}

// Population helpers ---------------------------------------------------------

// DeviceCounts converts market shares into integer client counts summing to
// n, using largest-remainder apportionment. Every positive-share device gets
// at least its floor.
func DeviceCounts(shares []float64, n int) []int {
	counts := make([]int, len(shares))
	remainders := make([]float64, len(shares))
	var total float64
	for _, s := range shares {
		total += s
	}
	assigned := 0
	for i, s := range shares {
		exact := float64(n) * s / total
		counts[i] = int(exact)
		remainders[i] = exact - float64(counts[i])
		assigned += counts[i]
	}
	for assigned < n {
		best := 0
		for i := 1; i < len(remainders); i++ {
			if remainders[i] > remainders[best] {
				best = i
			}
		}
		counts[best]++
		remainders[best] = -1
		assigned++
	}
	return counts
}

// BuildPopulation creates clients per device according to counts, splitting
// each device's dataset evenly (round-robin after shuffle) among its
// clients. perDevice maps device index → that device's training pool. It
// fails on a device with more clients than samples, which would leave some
// of its clients empty.
func BuildPopulation(perDevice map[int]*dataset.Dataset, counts []int, seed uint64) ([]*Client, error) {
	rng := frand.New(seed)
	var clients []*Client
	id := 0
	for dev := 0; dev < len(counts); dev++ {
		k := counts[dev]
		if k == 0 {
			continue
		}
		ds, ok := perDevice[dev]
		if !ok || ds.Len() == 0 {
			return nil, fmt.Errorf("fl: no data for device %d with %d clients", dev, k)
		}
		if k > ds.Len() {
			return nil, fmt.Errorf("fl: device %d has %d samples for %d clients", dev, ds.Len(), k)
		}
		shards := ds.PartitionIID(k, rng.Split())
		for _, sh := range shards {
			clients = append(clients, NewClient(id, dev, sh, seed))
			id++
		}
	}
	if len(clients) == 0 {
		return nil, fmt.Errorf("fl: empty population")
	}
	return clients, nil
}

// Builder re-exports models.Builder for convenience.
type Builder = models.Builder
