package serve

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"heteroswitch/internal/nn"
	"heteroswitch/internal/parallel"
	"heteroswitch/internal/tensor"
)

// Config carries the serving knobs.
type Config struct {
	// MaxBatch is the micro-batcher's flush threshold: a forming batch
	// executes as soon as it holds MaxBatch requests. 0 means 8.
	MaxBatch int
	// BatchBudget is the virtual time a partial batch waits for more
	// requests before flushing, measured from its first request's admission.
	// 0 still coalesces requests arriving at the same virtual instant.
	BatchBudget float64
	// Workers is the number of batches the load harness keeps in virtual
	// service at once, and the size of the frozen replica pool PredictInto
	// callers share. 0 means 1.
	Workers int
	// IntraOp is the total intra-op core budget. Each of the pool's Workers
	// replicas gets IntraOp/Workers cores (at least 1); the load harness
	// computes one batch at a time on one replica of its own, which gets
	// all of them. A replica's cores split a batch's conv iterations
	// (samples × groups); a batch-1 request runs on one core. 0 means the
	// machine (parallel.Workers()).
	IntraOp int
	// Admission is the overload policy. The zero value disables admission
	// control entirely: no request is shed, and the report's digest folds
	// no admission counter.
	Admission AdmissionConfig
	// Flush selects the order queued batches reach a freed worker in.
	// FlushFIFO (the zero value) starts batches strictly in flush order;
	// FlushEDF starts the earliest-deadline queued batch first (see
	// FlushPolicy). Without publish churn the two start the same batches
	// in the same order.
	Flush FlushPolicy
}

// FlushPolicy orders the flushed-batch queue.
type FlushPolicy int

const (
	// FlushFIFO starts queued batches in flush order. Under PublishEvery
	// churn this can invert urgency: the publish-triggered flush inside a
	// batch completion runs after the worker frees but before the queue
	// drains, so the forming batch — the newest arrivals — jumps straight
	// onto the worker while older queued batches keep aging toward the
	// admission deadline.
	FlushFIFO FlushPolicy = iota
	// FlushEDF starts the queued batch with the earliest deadline first (a
	// batch's deadline is its oldest request's arrival plus the admission
	// deadline). There is one forming batch and arrivals are stamped by a
	// monotone clock, so deadlines never decrease from one flush to the
	// next: earliest-deadline order is flush order, and the queue is the
	// same ring FlushFIFO uses. The policies differ only in that EDF never
	// lets a fresh flush jump the queue.
	FlushEDF
)

// String renders the policy as its CLI spelling.
func (p FlushPolicy) String() string {
	if p == FlushEDF {
		return "edf"
	}
	return "fifo"
}

// ParseFlush parses the CLI flush-policy spec: "fifo" (or "") and "edf".
func ParseFlush(spec string) (FlushPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(spec)) {
	case "", "fifo":
		return FlushFIFO, nil
	case "edf", "deadline":
		return FlushEDF, nil
	}
	return FlushFIFO, fmt.Errorf("serve: unknown flush policy %q (want fifo or edf)", spec)
}

// AdmissionConfig bounds the serving pending queue so closed-loop overload
// degrades to deterministic rejections with stable tail latency instead of
// unbounded virtual queueing.
type AdmissionConfig struct {
	// Depth caps requests pending service (forming batch plus flushed
	// queue): an arrival finding Depth requests pending is shed
	// immediately. 0 = unbounded.
	Depth int
	// Deadline sheds queued requests whose wait already exceeds it when
	// their batch reaches a worker — they would only burn service capacity
	// on an answer the client gave up on. 0 = no deadline.
	Deadline float64
}

// Enabled reports whether any admission mechanism is active.
func (a AdmissionConfig) Enabled() bool { return a.Depth > 0 || a.Deadline > 0 }

// ParseAdmission parses the CLI admission spec "DEPTH,DEADLINE" (either may
// be 0 to disable that mechanism); "" and "off" disable admission control.
func ParseAdmission(spec string) (AdmissionConfig, error) {
	if spec == "" || spec == "off" {
		return AdmissionConfig{}, nil
	}
	depthStr, deadStr, ok := strings.Cut(spec, ",")
	if !ok {
		return AdmissionConfig{}, fmt.Errorf("serve: admission spec %q wants DEPTH,DEADLINE (e.g. 64,12)", spec)
	}
	var a AdmissionConfig
	var err error
	if a.Depth, err = strconv.Atoi(strings.TrimSpace(depthStr)); err != nil {
		return AdmissionConfig{}, fmt.Errorf("serve: admission depth in %q: %v", spec, err)
	}
	if a.Deadline, err = strconv.ParseFloat(strings.TrimSpace(deadStr), 64); err != nil {
		return AdmissionConfig{}, fmt.Errorf("serve: admission deadline in %q: %v", spec, err)
	}
	if a.Depth < 0 || !(a.Deadline >= 0) || math.IsInf(a.Deadline, 1) {
		return AdmissionConfig{}, fmt.Errorf("serve: admission spec %q out of range", spec)
	}
	return a, nil
}

// withDefaults resolves zero fields.
func (c Config) withDefaults() Config {
	if c.MaxBatch == 0 {
		c.MaxBatch = 8
	}
	if c.Workers == 0 {
		c.Workers = 1
	}
	if c.IntraOp == 0 {
		c.IntraOp = parallel.Workers()
	}
	return c
}

// validate reports configuration errors (after withDefaults).
func (c Config) validate() error {
	if c.MaxBatch < 1 || c.Workers < 1 || c.IntraOp < 1 {
		return fmt.Errorf("serve: non-positive max-batch/workers/intraop: %d/%d/%d",
			c.MaxBatch, c.Workers, c.IntraOp)
	}
	if !(c.BatchBudget >= 0 && c.BatchBudget <= math.MaxFloat64) {
		return fmt.Errorf("serve: batch budget %g, want a finite budget >= 0", c.BatchBudget)
	}
	if c.Admission.Depth < 0 || c.Admission.Deadline < 0 ||
		math.IsNaN(c.Admission.Deadline) {
		return fmt.Errorf("serve: invalid admission config %+v", c.Admission)
	}
	if c.Flush != FlushFIFO && c.Flush != FlushEDF {
		return fmt.Errorf("serve: unknown flush policy %d", c.Flush)
	}
	return nil
}

// Server owns the serving stack: the refcounted version store, the frozen
// replica pool PredictInto callers share, and the load harness's own replica
// and micro-batcher state. Publish/Republish and PredictInto are safe for
// concurrent use; the load harness (RunLoad) drives the whole stack from one
// goroutine in virtual time and must not run concurrently with itself.
type Server struct {
	cfg   Config
	store *Store
	pool  *nn.ReplicaPool
	build func() *nn.Network

	// rep is the load harness's replica, built by the first load at the
	// whole IntraOp budget: the harness computes one batch at a time.
	rep *nn.Replica
	ld  loadState
}

// NewServer builds a serving stack for the model builder, publishing w as
// version 0. Each of cfg.Workers pool replicas is granted IntraOp/Workers
// cores (at least 1), mirroring fl's intra-op share so concurrent
// PredictInto callers never oversubscribe the budget.
func NewServer(build func() *nn.Network, w nn.Weights, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Server{
		cfg:   cfg,
		store: NewStore(w),
		pool:  nn.NewReplicaPool(cfg.Workers, build, parallel.Share(cfg.IntraOp, cfg.Workers)),
		build: build,
	}, nil
}

// Store exposes the version store (for publishing trained weights).
func (s *Server) Store() *Store { return s.store }

// PredictInto serves one request synchronously on the calling goroutine: it
// pins the current model version, borrows a pool replica (blocking while all
// Workers replicas are busy), loads that version into it if it holds
// another, runs the frozen forward on x, copies the output into dst and
// returns the replica. It returns the version that served the request and
// the number of values written to dst. Concurrent callers race only for
// replicas; the version pin guarantees each request is served end-to-end by
// the exact version current at its admission, even while Publish runs.
func (s *Server) PredictInto(dst []float32, x *tensor.Tensor) (version, n int, err error) {
	v, w := s.store.Acquire()
	defer s.store.Release(v)
	rep := s.pool.Get()
	defer s.pool.Put(rep)
	if err = rep.Ensure(v, w); err != nil {
		return 0, 0, err
	}
	return v, copy(dst, rep.Infer(x).Data()), nil
}
