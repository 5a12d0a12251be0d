package serve

import (
	"fmt"
	"math"

	"heteroswitch/internal/nn"
	"heteroswitch/internal/simclock"
	"heteroswitch/internal/tensor"
)

// LoadConfig describes one deterministic load run.
type LoadConfig struct {
	// Requests is the total number of requests to serve.
	Requests int
	// Concurrency is the closed-loop client population (each keeps one
	// request outstanding). Ignored by open-loop arrival models.
	Concurrency int
	// Arrival generates the request process. nil means ClosedLoop{} —
	// zero-think clients, the saturation regime.
	Arrival ArrivalModel
	// Service prices a batch's virtual execution time. nil means
	// AffineService{Base: 1, PerItem: 0.25}.
	Service ServiceModel
	// Seed seeds the request-content stream and any nil models.
	Seed uint64
	// PublishEvery republishes the model (same values, new version) every N
	// completed batches, exercising version-cache churn: replica reloads and
	// refcount handoff with zero effect on outputs. 0 disables.
	PublishEvery int
	// Inputs is the request content bank: request i sends Inputs[i % len].
	// All tensors must share one shape (a single sample, no batch dim).
	Inputs []*tensor.Tensor
}

// withDefaults resolves nil models and zero fields.
func (lc LoadConfig) withDefaults() LoadConfig {
	if lc.Arrival == nil {
		lc.Arrival = ClosedLoop{Seed: lc.Seed}
	}
	if lc.Service == nil {
		lc.Service = AffineService{Base: 1, PerItem: 0.25}
	}
	if lc.Concurrency == 0 {
		lc.Concurrency = 1
	}
	return lc
}

// Event kinds of the load simulation.
const (
	evArrival  = iota // a request enters the micro-batcher
	evDeadline        // a forming batch's latency budget expires
	evDone            // a worker finishes a batch's virtual service time
	evPublish         // a trained global version lands in the store (wired runs)
)

// simEvent is one scheduled occurrence, stored in the slot its simclock
// event ID names. An evPublish carries no payload here: at most one is ever
// pending (PublishAt drains through its own instant before returning), so
// its weights wait in loadState.publishW.
type simEvent struct {
	kind int
	req  int    // evArrival: request id
	gen  int    // evDeadline: forming-batch generation at schedule time
	b    *batch // evDone: the serviced batch
}

// An event's simclock ID is seq<<slotBits | slot. seq is unique and
// increasing, so IDs order exactly as seq does: the clock's tie-break at one
// virtual instant stays schedule order. That holds for 2^31 events per run,
// far beyond what the per-request buffers of a run fit in memory for. slotMask
// is an int constant that overflows a 32-bit int, so the encoding refuses to
// compile where it would not fit.
const (
	slotBits = 32
	slotMask = 1<<slotBits - 1
)

// batch is one flushed micro-batch: request ids pinned to the model version
// current at flush, plus the replica executing it.
type batch struct {
	ids     []int
	version int
	w       nn.Weights
	rep     *nn.Replica
}

// loadState is the single-goroutine virtual-time simulation behind RunLoad,
// structured as beginLoad + step so white-box tests can assert the warm
// steady-state step is allocation-free.
type loadState struct {
	lc  LoadConfig
	srv *Server
	err error

	// Pending events live in a slot slab, not a map: events[slot] holds the
	// payload of the clock event whose ID carries that slot, and freeSlots
	// stacks the slots popped events gave back.
	clock     simclock.Clock
	seq       int
	events    []simEvent
	freeSlots []int
	publishW  nn.Weights // the pending evPublish's weights

	// Request bookkeeping, preallocated for all lc.Requests.
	nextReq    int
	arrTime    []float64
	lat        []float64
	outs       []float32
	outDim     int
	sampleSize int
	done       int
	reqClient  []int32
	clientStep []int

	// The forming batch; formGen invalidates stale deadline events.
	forming []int
	formGen int

	// Batch execution: a free stack of recycled batch structs, the flushed
	// batches waiting for a worker — a FIFO ring (queue/qhead) under either
	// flush policy — and the busy-worker count.
	freeBatches []*batch
	queue       []*batch
	qhead       int
	busy        int
	batchSeq    int
	batchesDone int
	sizeSum     int

	// Admission accounting. pending counts requests admitted but not yet at
	// a worker (forming batch plus flushed queue); served counts requests
	// that actually completed service (lat[:served] holds their latencies in
	// completion order — quantiles sort, so the multiset is what matters).
	pending  int
	maxQueue int
	served   int
	shedQ    int
	shedD    int
	reissues int

	// staging[n-1] is the [n, sample...] input tensor batches of size n are
	// assembled into before the frozen forward.
	staging []*tensor.Tensor

	hist Histogram

	// Wired train-while-serve bookkeeping. wired runs (BeginTrainLoad …
	// FinishTrainLoad) receive trained versions through evPublish events and
	// record, per served request, how many versions the store had accepted
	// beyond the one that served it, measured at completion. curVersion
	// mirrors the store's latest version so the hot loop never takes the
	// store mutex; staleMin is -1 until the first served request.
	wired      bool
	curVersion int
	staleMin   int
	staleMax   int
	staleSum   int64
	staleHist  StalenessHist
}

// RunLoad executes one deterministic load run to completion and returns its
// report. Same LoadConfig (and server Config) ⇒ bit-identical report,
// including per-request outputs, at every intra-op budget.
func (s *Server) RunLoad(lc LoadConfig) (Report, error) {
	if err := s.beginLoad(lc); err != nil {
		return Report{}, err
	}
	for s.step() {
	}
	if err := s.ld.failed(); err != nil {
		return Report{}, err
	}
	return s.ld.report(), nil
}

// failed returns the run's error, nil for a healthy run. A failed run first
// gives back what its unfinished batches hold: each batch still in service
// (a pending evDone) returns its replica, and it and each batch still queued
// release their version pin and recycle. Every exit that surfaces the error
// goes through here, so the pool is full and only the current version is
// live afterwards — the next run on the server would otherwise wait forever
// for a replica. It is idempotent.
func (ld *loadState) failed() error {
	if ld.err == nil {
		return nil
	}
	for i, e := range ld.events {
		if e.kind == evDone && e.b != nil {
			ld.busy--
			ld.srv.pool.Put(e.b.rep)
			e.b.rep = nil
			ld.unpin(e.b)
			ld.events[i] = simEvent{}
		}
	}
	for _, b := range ld.queue[ld.qhead:] {
		ld.unpin(b)
	}
	clear(ld.queue) // like drain, leave no batch in a ring slot
	ld.queue, ld.qhead = ld.queue[:0], 0
	return ld.err
}

// beginLoad validates the config, preallocates every steady-state buffer,
// warms the replicas (arena, frozen fold, im2col scratch), and schedules the
// initial arrivals.
func (s *Server) beginLoad(lc LoadConfig) error {
	lc = lc.withDefaults()
	if lc.Requests < 1 {
		return fmt.Errorf("serve: load needs at least 1 request, have %d", lc.Requests)
	}
	if lc.Concurrency < 0 || lc.PublishEvery < 0 {
		return fmt.Errorf("serve: load needs Concurrency and PublishEvery >= 0, have %d and %d", lc.Concurrency, lc.PublishEvery)
	}
	if len(lc.Inputs) == 0 {
		return fmt.Errorf("serve: load needs a non-empty input bank")
	}
	ld := &s.ld
	*ld = loadState{lc: lc, srv: s}
	ld.sampleSize = lc.Inputs[0].Size()
	for _, x := range lc.Inputs {
		if x.Size() != ld.sampleSize {
			return fmt.Errorf("serve: input bank shapes differ")
		}
	}

	// Staging tensors for every batch size, plus a warmup forward per size on
	// EVERY replica, so each worker's arena, frozen fold, and im2col scratch
	// hold every shape before time starts — the steady-state event loop then
	// allocates nothing.
	sample := lc.Inputs[0].Shape()
	ld.staging = make([]*tensor.Tensor, s.cfg.MaxBatch)
	shape := append([]int{0}, sample...)
	for n := 1; n <= s.cfg.MaxBatch; n++ {
		shape[0] = n
		ld.staging[n-1] = tensor.New(shape...)
		for r := 0; r < n; r++ {
			copy(ld.staging[n-1].Data()[r*ld.sampleSize:], lc.Inputs[r%len(lc.Inputs)].Data())
		}
	}
	v, w := s.store.Acquire()
	reps := make([]*nn.Replica, s.pool.Size())
	for i := range reps {
		reps[i] = s.pool.Get()
		if err := reps[i].Ensure(v, w); err != nil {
			for _, r := range reps[:i+1] {
				s.pool.Put(r)
			}
			s.store.Release(v)
			return err
		}
		for n := 1; n <= s.cfg.MaxBatch; n++ {
			out := reps[i].Infer(ld.staging[n-1])
			ld.outDim = out.Size() / n
		}
	}
	for _, r := range reps {
		s.pool.Put(r)
	}
	s.store.Release(v)

	ld.arrTime = make([]float64, lc.Requests)
	ld.lat = make([]float64, lc.Requests)
	ld.outs = make([]float32, lc.Requests*ld.outDim)
	ld.forming = make([]int, 0, s.cfg.MaxBatch)
	prealloc := s.cfg.Workers + lc.Concurrency + 4
	if prealloc > lc.Requests {
		prealloc = lc.Requests
	}
	for i := 0; i < prealloc; i++ {
		ld.freeBatches = append(ld.freeBatches, &batch{ids: make([]int, 0, s.cfg.MaxBatch)})
	}

	if lc.Arrival.Closed() {
		clients := lc.Concurrency
		if clients > lc.Requests {
			clients = lc.Requests
		}
		ld.reqClient = make([]int32, lc.Requests)
		ld.clientStep = make([]int, clients)
		for c := 0; c < clients; c++ {
			id := ld.nextReq
			ld.nextReq++
			ld.reqClient[id] = int32(c)
			ld.schedule(lc.Arrival.Delay(c, 0), simEvent{kind: evArrival, req: id})
			ld.clientStep[c] = 1
		}
	} else {
		ld.nextReq = 1
		ld.schedule(lc.Arrival.Delay(0, 0), simEvent{kind: evArrival, req: 0})
	}
	return ld.err
}

// schedule enqueues ev after delay; the monotonic seq doubles as the
// deterministic tie-break at equal virtual instants. A negative or NaN delay
// — a model pricing an event before now — fails the run.
func (ld *loadState) schedule(delay float64, ev simEvent) {
	if !(delay >= 0) {
		ld.err = fmt.Errorf("serve: event delay %v, want a delay >= 0", delay)
		return
	}
	ld.scheduleAt(ld.clock.Now()+delay, ev)
}

// scheduleAt enqueues ev at an absolute virtual instant (used by PublishAt,
// whose timestamps come from the trainer's clock and must not pick up
// float rounding from a now+delay round trip). An instant before now, NaN or
// +Inf fails the run instead of reaching the clock, whose heap order NaN
// would corrupt and where +Inf would stall every later event.
func (ld *loadState) scheduleAt(at float64, ev simEvent) {
	if !(at >= ld.clock.Now() && at <= math.MaxFloat64) {
		ld.err = fmt.Errorf("serve: event at %v, want a finite instant >= now (%v)", at, ld.clock.Now())
		return
	}
	var slot int
	if n := len(ld.freeSlots); n > 0 {
		slot = ld.freeSlots[n-1]
		ld.freeSlots = ld.freeSlots[:n-1]
		ld.events[slot] = ev
	} else {
		slot = len(ld.events)
		ld.events = append(ld.events, ev)
	}
	ld.clock.Schedule(at, ld.seq<<slotBits|slot)
	ld.seq++
}

// popEvent takes the clock's next event out of its slot and frees the slot.
func (ld *loadState) popEvent() (simEvent, bool) {
	ev, ok := ld.clock.Next()
	if !ok {
		return simEvent{}, false
	}
	slot := ev.ID & slotMask
	e := ld.events[slot]
	ld.events[slot] = simEvent{}
	ld.freeSlots = append(ld.freeSlots, slot)
	return e, true
}

// step pops and handles one event. It returns false once every request has
// completed (or on an execution error); leftover stale deadlines are
// discarded with the clock.
func (s *Server) step() bool {
	ld := &s.ld
	if ld.done >= ld.lc.Requests || ld.err != nil {
		return false
	}
	e, ok := ld.popEvent()
	if !ok {
		ld.err = fmt.Errorf("serve: event queue drained with %d/%d requests done", ld.done, ld.lc.Requests)
		return false
	}
	switch e.kind {
	case evArrival:
		ld.onArrival(e.req)
	case evDeadline:
		if e.gen == ld.formGen && len(ld.forming) > 0 {
			ld.flush()
		}
	case evDone:
		ld.onDone(e.b)
	case evPublish:
		ld.applyPublish()
	}
	return ld.done < ld.lc.Requests && ld.err == nil
}

// applyPublish installs the pending trained global version: the forming
// batch (if any) flushes first, pinned to the pre-publish version — exactly
// the ordering the PublishEvery churn path uses — and then the store
// advances.
func (ld *loadState) applyPublish() {
	if len(ld.forming) > 0 {
		ld.flush()
	}
	ld.curVersion = ld.srv.store.Publish(ld.publishW)
	ld.publishW = nn.Weights{}
}

// onArrival admits one request to the forming batch, flushing at MaxBatch
// and arming the budget deadline when the batch opens. Under a bounded
// admission depth, an arrival finding the pending set full is shed on the
// spot — the closed loop reissues, the open loop keeps chaining either way.
func (ld *loadState) onArrival(req int) {
	ld.arrTime[req] = ld.clock.Now()
	if !ld.lc.Arrival.Closed() && ld.nextReq <= ld.lc.Requests-1 {
		// Chain the open-loop process: arrival i schedules arrival i+1.
		id := ld.nextReq
		ld.nextReq++
		ld.schedule(ld.lc.Arrival.Delay(0, id), simEvent{kind: evArrival, req: id})
	}
	if d := ld.srv.cfg.Admission.Depth; d > 0 && ld.pending >= d {
		ld.shed(req, true)
		return
	}
	ld.pending++
	if ld.pending > ld.maxQueue {
		ld.maxQueue = ld.pending
	}
	if len(ld.forming) == 0 && ld.srv.cfg.MaxBatch > 1 {
		// Arm the budget deadline when the batch opens. A zero budget still
		// coalesces: the deadline lands at this same virtual instant but after
		// every already-scheduled event here (larger event ID), so simultaneous
		// arrivals join the batch first.
		ld.schedule(ld.srv.cfg.BatchBudget, simEvent{kind: evDeadline, gen: ld.formGen})
	}
	ld.forming = append(ld.forming, req)
	if len(ld.forming) >= ld.srv.cfg.MaxBatch {
		ld.flush()
	}
}

// flush pins the forming batch to the current model version and hands it
// off. Under FlushFIFO an idle worker takes it at once, even past older
// queued batches (the queue jump FlushPolicy documents); otherwise it joins
// the queue and drains, so under FlushEDF a flush that happens while older
// batches are queued — the publish-churn path — cannot jump them.
func (ld *loadState) flush() {
	b := ld.getBatch()
	b.ids = append(b.ids[:0], ld.forming...)
	b.version, b.w = ld.srv.store.Acquire()
	ld.forming = ld.forming[:0]
	ld.formGen++
	if ld.srv.cfg.Flush == FlushFIFO && ld.busy < ld.srv.cfg.Workers {
		ld.startService(b)
		return
	}
	ld.queue = append(ld.queue, b)
	ld.drain()
}

// drain pulls queued batches onto free workers, oldest flush first, until
// either runs out. A fully-deadline-shed batch never occupies a worker, so
// the loop keeps pulling past it; an execution error stops the drain
// (startService has already rolled the failed batch back).
func (ld *loadState) drain() {
	for ld.err == nil && ld.busy < ld.srv.cfg.Workers && ld.qhead < len(ld.queue) {
		nb := ld.queue[ld.qhead]
		ld.queue[ld.qhead] = nil
		ld.qhead++
		if ld.qhead == len(ld.queue) {
			ld.queue = ld.queue[:0]
			ld.qhead = 0
		}
		ld.startService(nb)
	}
}

// shed rejects one request without serving it: its output slot stays zero,
// no latency is recorded, and — like a completion — a closed-loop client
// whose request was shed immediately issues its next one (counted as a
// reissue). atAdmission distinguishes depth-bound sheds from deadline sheds.
func (ld *loadState) shed(req int, atAdmission bool) {
	if atAdmission {
		ld.shedQ++
	} else {
		ld.shedD++
	}
	ld.done++
	if ld.feed(req) {
		ld.reissues++
	}
}

// feed schedules the closed-loop successor of a finished (served or shed)
// request, reporting whether one was issued.
func (ld *loadState) feed(id int) bool {
	if !ld.lc.Arrival.Closed() || ld.nextReq >= ld.lc.Requests {
		return false
	}
	c := int(ld.reqClient[id])
	nid := ld.nextReq
	ld.nextReq++
	ld.reqClient[nid] = int32(c)
	ld.schedule(ld.lc.Arrival.Delay(c, ld.clientStep[c]), simEvent{kind: evArrival, req: nid})
	ld.clientStep[c]++
	return true
}

// startService executes the batch NOW (the compute is real: assemble inputs,
// ensure the replica serves the pinned version, run the frozen forward, copy
// outputs out by request id) and schedules its completion at now + the
// service model's virtual duration. Under a deadline policy, requests whose
// queueing wait already blew the deadline are shed here — at the last
// instant before they would burn service capacity; a fully-shed batch
// releases its version pin and never reaches a worker.
func (ld *loadState) startService(b *batch) {
	ld.pending -= len(b.ids)
	if dl := ld.srv.cfg.Admission.Deadline; dl > 0 {
		now := ld.clock.Now()
		kept := b.ids[:0]
		for _, id := range b.ids {
			if now-ld.arrTime[id] > dl {
				ld.shed(id, false)
			} else {
				kept = append(kept, id)
			}
		}
		b.ids = kept
		if len(b.ids) == 0 {
			ld.unpin(b)
			return
		}
	}
	dur := ld.lc.Service.Batch(len(b.ids), ld.batchSeq)
	// Negative or NaN is a completion before the dispatch; +Inf (or a finite
	// duration whose completion overflows) one that never comes. Checked here,
	// before the batch takes a worker, so the failed run leaks nothing.
	if !(dur >= 0 && ld.clock.Now()+dur <= math.MaxFloat64) {
		ld.unpin(b)
		ld.err = fmt.Errorf("serve: service model priced a batch of %d at %v, want a finite duration >= 0", len(b.ids), dur)
		return
	}
	ld.busy++
	rep := ld.srv.pool.Get()
	b.rep = rep
	if err := rep.Ensure(b.version, b.w); err != nil {
		// Roll back everything the batch holds before surfacing the error:
		// the worker slot, the borrowed replica, the version pin, and the
		// batch struct itself. Without this the run leaked a replica and a
		// pinned version per failed Ensure and kept reporting a busy worker.
		ld.busy--
		b.rep = nil
		ld.srv.pool.Put(rep)
		ld.unpin(b)
		ld.err = err
		return
	}
	n := len(b.ids)
	x := ld.staging[n-1]
	for r, id := range b.ids {
		copy(x.Data()[r*ld.sampleSize:(r+1)*ld.sampleSize], ld.lc.Inputs[id%len(ld.lc.Inputs)].Data())
	}
	out := rep.Infer(x).Data()
	for r, id := range b.ids {
		copy(ld.outs[id*ld.outDim:(id+1)*ld.outDim], out[r*ld.outDim:(r+1)*ld.outDim])
	}
	ld.batchSeq++
	ld.schedule(dur, simEvent{kind: evDone, b: b})
}

// onDone retires a completed batch: record latencies, feed the closed loop,
// release the version pin and the replica, then pull queued work onto the
// freed worker. Version churn (PublishEvery) fires here, after the forming
// batch is flushed under its admission version.
func (ld *loadState) onDone(b *batch) {
	now := ld.clock.Now()
	ld.busy--
	stale := ld.curVersion - b.version
	for _, id := range b.ids {
		d := now - ld.arrTime[id]
		ld.lat[ld.served] = d
		ld.served++
		ld.hist.Add(d)
		ld.done++
		ld.feed(id)
	}
	if ld.wired && len(b.ids) > 0 {
		ld.recordStaleness(stale, len(b.ids))
	}
	ld.srv.store.Release(b.version)
	ld.srv.pool.Put(b.rep)
	b.rep = nil
	b.w = nn.Weights{}
	ld.batchesDone++
	ld.sizeSum += len(b.ids)
	ld.putBatch(b)

	if pe := ld.lc.PublishEvery; pe > 0 && ld.batchesDone%pe == 0 {
		if len(ld.forming) > 0 {
			ld.flush() // the forming batch belongs to the pre-publish version
		}
		ld.curVersion = ld.srv.store.Republish()
	}
	ld.drain()
}

// recordStaleness folds one batch's served-version staleness (versions the
// store accepted beyond the batch's pinned version, measured at completion)
// into the wired-run summary, once per served request.
func (ld *loadState) recordStaleness(stale, n int) {
	if ld.staleMin < 0 || stale < ld.staleMin {
		ld.staleMin = stale
	}
	if stale > ld.staleMax {
		ld.staleMax = stale
	}
	ld.staleSum += int64(stale) * int64(n)
	ld.staleHist.add(stale, int64(n))
}

// getBatch pops the batch free stack (growing it only when the preallocated
// set is exhausted — open-loop overload).
func (ld *loadState) getBatch() *batch {
	if n := len(ld.freeBatches); n > 0 {
		b := ld.freeBatches[n-1]
		ld.freeBatches[n-1] = nil
		ld.freeBatches = ld.freeBatches[:n-1]
		return b
	}
	return &batch{ids: make([]int, 0, ld.srv.cfg.MaxBatch)}
}

// putBatch returns a batch struct to the free stack.
func (ld *loadState) putBatch(b *batch) { ld.freeBatches = append(ld.freeBatches, b) }

// unpin gives back what a batch that reaches no worker holds: its version pin
// and the batch itself.
func (ld *loadState) unpin(b *batch) {
	ld.srv.store.Release(b.version)
	b.w = nn.Weights{}
	ld.putBatch(b)
}

// report summarizes the completed run.
func (ld *loadState) report() Report {
	r := Report{
		Requests:     ld.done,
		Served:       ld.served,
		ShedQueue:    ld.shedQ,
		ShedDeadline: ld.shedD,
		Reissues:     ld.reissues,
		MaxQueue:     ld.maxQueue,
		Batches:      ld.batchesDone,
		VirtualTime:  ld.clock.Now(),
		Hist:         ld.hist,
	}
	if ld.batchesDone > 0 {
		r.MeanBatch = float64(ld.sizeSum) / float64(ld.batchesDone)
	}
	if r.VirtualTime > 0 {
		r.Throughput = float64(ld.served) / r.VirtualTime
	}
	r.quantiles(ld.lat[:ld.served])
	r.OutputDigest = digest(ld.outs)
	if ld.srv.cfg.Admission.Enabled() {
		// Fold the admission counters into the digest so a run that shed a
		// different request set cannot collide with one that didn't. Shed
		// requests already perturb the base digest (their output slots stay
		// zero), but the counters make the witness explicit. Admission-off
		// digests are untouched — the pre-admission bit-identity contract.
		for _, c := range [...]int{ld.served, ld.shedQ, ld.shedD, ld.reissues, ld.maxQueue} {
			r.OutputDigest = foldU64(r.OutputDigest, uint64(c))
		}
	}
	if ld.wired {
		// Wired runs carry the staleness summary; fold it into the digest so
		// a run that served a different version mix cannot collide. Unwired
		// reports are untouched — byte-identical to the pre-wiring harness.
		r.StaleTracked = true
		if ld.staleMin > 0 {
			r.StaleMin = ld.staleMin
		}
		r.StaleMax = ld.staleMax
		if ld.served > 0 {
			r.StaleMean = float64(ld.staleSum) / float64(ld.served)
		}
		r.StaleHist = ld.staleHist
		r.OutputDigest = foldU64(r.OutputDigest, uint64(r.StaleMin))
		r.OutputDigest = foldU64(r.OutputDigest, uint64(r.StaleMax))
		for _, c := range r.StaleHist {
			r.OutputDigest = foldU64(r.OutputDigest, uint64(c))
		}
	}
	return r
}

// BeginTrainLoad starts a wired train-while-serve run: the same deterministic
// load simulation as RunLoad, but paused between trained-version publishes
// instead of free-running. The caller interleaves training and serving on one
// virtual clock by calling PublishAt at every training publish instant and
// FinishTrainLoad once training ends:
//
//	err := srv.BeginTrainLoad(lc)
//	… for each finalized global, at trainer virtual time t:
//	buf := srv.Store().TakeBuffer(); copy the global into buf
//	err = srv.PublishAt(t, buf)
//	… after the last window:
//	report, err := srv.FinishTrainLoad()
//
// Wired runs track served-version staleness (Report.StaleTracked); the
// synthetic PublishEvery churn knob is rejected — version churn comes from
// the trainer.
func (s *Server) BeginTrainLoad(lc LoadConfig) error {
	if lc.PublishEvery != 0 {
		return fmt.Errorf("serve: PublishEvery is the unwired churn knob; wired runs publish from the trainer")
	}
	if err := s.beginLoad(lc); err != nil {
		return err
	}
	s.ld.wired = true
	s.ld.curVersion = s.store.Version()
	s.ld.staleMin = -1
	return nil
}

// PublishAt schedules trained weights w to land in the serving store at
// virtual instant t and advances the serving simulation through every event
// at or before t. Ordering is fixed and deterministic: serving events already
// scheduled at exactly t fire before the publish (the publish event carries a
// larger tie-break ID), the forming batch then flushes pinned to the
// pre-publish version, and the store advances. t must be finite and must not
// precede an instant the serving clock has already passed. The store takes
// ownership of w — publish a Store().TakeBuffer() copy, never a buffer the
// trainer will recycle.
func (s *Server) PublishAt(t float64, w nn.Weights) error {
	ld := &s.ld
	if !ld.wired {
		return fmt.Errorf("serve: PublishAt outside a BeginTrainLoad run")
	}
	if err := ld.failed(); err != nil {
		return err
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		return fmt.Errorf("serve: publish at %g is not a finite instant", t)
	}
	if t < ld.clock.Now() {
		return fmt.Errorf("serve: publish at %g is in the serving past (now %g)", t, ld.clock.Now())
	}
	ld.publishW = w
	if ld.done >= ld.lc.Requests {
		// The load has drained; nothing left to interleave with, but the
		// version stream stays complete for anyone reading the store.
		ld.applyPublish()
		return nil
	}
	ld.scheduleAt(t, simEvent{kind: evPublish})
	return s.advanceTo(t)
}

// advanceTo processes every pending event at or before t. Once the load has
// drained mid-advance, remaining publishes still apply (the trainer keeps
// publishing) while stale deadlines are discarded.
func (s *Server) advanceTo(t float64) error {
	ld := &s.ld
	for ld.err == nil {
		ev, ok := ld.clock.Peek()
		if !ok || ev.At > t {
			break
		}
		if ld.done < ld.lc.Requests {
			s.step()
			continue
		}
		if e, _ := ld.popEvent(); e.kind == evPublish {
			ld.applyPublish()
		}
	}
	return ld.failed()
}

// FinishTrainLoad runs the wired load to completion (requests arriving after
// the last publish are served by the final trained version) and returns the
// report, with Report.StaleTracked staleness summary included.
func (s *Server) FinishTrainLoad() (Report, error) {
	if !s.ld.wired {
		return Report{}, fmt.Errorf("serve: FinishTrainLoad outside a BeginTrainLoad run")
	}
	for s.step() {
	}
	if err := s.ld.failed(); err != nil {
		return Report{}, err
	}
	return s.ld.report(), nil
}

// foldU64 mixes eight little-endian bytes of v into an FNV-1a digest.
func foldU64(h, v uint64) uint64 {
	for s := 0; s < 64; s += 8 {
		h ^= (v >> s) & 0xff
		h *= 1099511628211
	}
	return h
}

// digest is FNV-1a over the float32 bit patterns in request order — the
// cheap bit-identity witness for "same outputs".
func digest(vals []float32) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range vals {
		bits := math.Float32bits(v)
		for s := 0; s < 32; s += 8 {
			h ^= uint64(bits>>s) & 0xff
			h *= 1099511628211
		}
	}
	return h
}
