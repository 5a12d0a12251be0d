// Package heteroswitch is a from-scratch Go reproduction of "HeteroSwitch:
// Characterizing and Taming System-Induced Data Heterogeneity in Federated
// Learning" (Kim et al., MLSys 2024).
//
// The implementation lives under internal/: a neural-network training stack
// (internal/nn, internal/tensor), a camera + ISP simulation that generates
// system-induced data heterogeneity (internal/camera, internal/isp,
// internal/device, internal/scene), the federated-learning engine and
// baselines (internal/fl), the HeteroSwitch algorithm (internal/core), and
// one harness per paper table/figure (internal/experiments), and a serving
// front end on the frozen inference path (internal/serve). Entry points:
// cmd/heterobench, cmd/flsim, cmd/flserve, cmd/ispdemo, and the runnable
// examples/.
//
// The three FL command lines share one run configuration,
// experiments.Options: every flag more than one of them takes is declared
// once, by (*Options).BindFlags (flserve, which has no aggregation engine,
// takes the BindMachineFlags subset), with the receiver's field values as the
// defaults the binaries disagree on; the options are checked and applied in
// one place, Options.Apply, which experiments.Run and experiments.NewFL —
// the one constructor behind every federation — call. A binary declares only
// the flags that are its alone (flags_test.go holds that line).
//
// # Capture path
//
// Every dataset starts as captures: a camera.Sensor exposes a shared scene
// into a RAW frame, an isp.Pipeline (plus the device's vendor tuning)
// develops it, and the result is resized into the sample tensor. The path is
// written to cost what its float64 arithmetic costs, and every rewrite of it
// is held to the bytes it produced before (pinned per Table-1 device, per
// Table-3 cell and for random profiles in
// internal/experiments/capture_pin_test.go; each primitive against its old
// implementation at tolerance zero in internal/isp/differential_test.go).
//
// What is memoised, and why that is exact: the vendor tone gamma runs on
// JPEG-decoder output, whose samples are exactly code/65535 for a 16-bit
// code, so isp.Scratch keeps one lazily filled 65 536-entry table of
// math.Pow(code/65535, gamma) per exponent and uses an entry only when
// float64(code)/65535 == v holds for the sample; any other sample (a
// pipeline without JPEG) calls math.Pow. The table entry IS the math.Pow
// result for that very argument. The sRGB encode sees continuous values.
// Where its plane goes straight to JPEG (plain sRGB gamma, then a JPEG
// stage), the JPEG encoder reads it only as to8 bytes, so Process skips the
// float plane and the hand-off maps each linear sample to its byte through a
// table of the 255 cuts where the byte steps, each found once per process by
// bisecting float64 bit patterns on the exact expression. That is exact
// because the expression's float error can flip a byte only within a few
// ulps of a cut: a sample within 2^-30 (relative) of one — or NaN, <= 0 or
// >= 1 — takes the exact expression instead. Elsewhere SRGBEncode calls
// math.Exp(y·math.Log(v)), which is the very computation math.Pow performs
// for its exponent 1/2.4, minus the wrapper. The 3×3 median sorts each
// column of the window once and takes the median of the largest low, the
// median middle and the smallest high — a min/max network, so checking all
// 512 zero-one windows proves it equals the sort — and the percentiles are
// quickselect; both return the order statistic a full sort would. Sensor
// noise draws, the stdlib JPEG codec and demosaicing are the floor now.
// Scenes are resized once per sensor resolution that several devices share.
//
// Who owns scratch: a capture loop (dataset.Capture*, flair.Build) owns one
// isp.Scratch per worker, Reset once per image; every intermediate — resized
// scene, RAW frame, demosaic and denoise planes, the 8-bit JPEG hand-off and
// its byte buffer — lives there, the pointwise stages work in place, and the
// sample tensor is the only per-image allocation that survives. A nil
// *Scratch allocates instead: the package-level isp, camera and device
// functions are the nil-scratch form of the same code and keep their
// "returns a new image, input untouched" contract.
//
// Why exposure is sequential and development is not: exposure draws the
// sensor noise from the device's RNG stream, so a device's frames are
// exposed in scene order, under that device's lock; development is a pure
// function of the exposed frame. dataset.CaptureDevices therefore hands out
// images, not devices, to opts.Workers, and the data is identical at every
// worker count.
//
// # HeteroSwitch's ISP transformation
//
// internal/core's RandomWBGamma (eqs. 2–3) and GammaOnly draw their gains
// and γ (floored at 0.05) in a fixed order, then make one pass per channel:
// gain, clamp to [0, 1], power (powSweep). The power is held to the bits of
// float32(math.Pow(float64(v), γ)) without calling math.Pow: powFast computes
// v^γ in float64 from two 256-entry tables and two short polynomials, within
// 2^-45 of the true value as math.Pow is, and certifies its float32 rounding
// only when the float64 lies more than 2^-34 (relative) from a float32
// rounding boundary — where both values must round alike. Inside that band
// (about one value in a thousand), and for NaN, −0, subnormals, results near
// float32's smallest normal or γ outside (0, 2], the sweep calls math.Pow. A
// table test over a captured image, special values and near ties found by
// search, and a fuzz target over any float32 and any γ, hold the contract.
//
// # Aggregation: one core, two window drivers
//
// internal/fl has one aggregation core (the unexported engine that fl.Server
// and fl.AsyncServer embed) and two short drivers that differ only in how a
// window of client steps is planned and folded. The core owns construction
// and validation, the client-sampling stream (one Choice per K-draw; losing a
// sampled client is the fault model's job), the training replicas with their
// accumulators and scratch weight sets, the versioned global and its one
// finalize, the RoundStats fold, GlobalNet, the window (one slice of steps
// under both drivers), the crew that runs it — replica 0 on the calling
// goroutine, W−1 goroutines for the rest — and the client step itself:
//
//	train on a replica against the job's global → corrupt (faults draw) →
//	validation gate → Accumulator.Fold(result, scale) → keep only scalars
//
// What differs between the drivers reaches the step as arguments — which
// global, which RNG and corruption keys, which scale, which replica and
// scratch set — never as a mode. Both drivers follow one buffer discipline.
// A step trains into a scratch set of the core's — one per replica on the
// barrier driver, a ring of two per replica on the event loop — that is the
// step's own until its result is folded. Every global version lives in a
// refcounted nn.VersionStore, where the core holds the live one like any
// reader: it retains the global at construction and at each finalize, and
// releases the version it replaces. finalize writes the
// next global into a buffer whose version has no reference left, so neither
// driver allocates a model-sized buffer per round in steady state. A strategy's server side is a fold: fl.Strategy.NewAccumulator
// returns an fl.Accumulator, the one interface every strategy implements:
//
//	Accumulator.Fold(result, scale)       // fold one client, buffers reusable after
//	Accumulator.Merge(other)              // absorb a sibling shard
//	Accumulator.FinalizeInto(dst) → bool  // write the new global, or report "no update"
//	Accumulator.Reset(global, cfg)        // rewind for the next round
//
// All five strategies share one float64 weighted-sum core. FedAvg and
// FedProx fold Σ n_k·w_k; HeteroSwitch also folds the eq. 1 inputs, so L_EMA
// updates at finalize; q-FedAvg folds Σ F_k^q·w_k and its scalar denominator;
// SCAFFOLD folds FedAvg's sums plus Σ Δc_k, committing a client's control
// variate only when its result is folded, so a gate-rejected update leaves
// no trace. On the event loop scale is the staleness discount, and it scales
// every one of those sums alike.
//
// The barrier driver (fl.Server.RunRound): draw K, partition them over W
// workers balanced on sample count (longest-first greedy — a pure function
// of the sampled list, so shard contents never depend on scheduling), run
// each shard's steps in sampling order on its own replica, scratch set and
// accumulator on the crew, merge the shards tree-style, and finalize. No job
// outlives the round, so the replaced global recycles at once and the next
// round's finalize writes into it. Peak weight memory is O(W), not O(K); a
// round allocates no model-sized buffer in steady state
// (TestServerRoundAllocations); float64 shard sums confine the merge order to
// double-precision rounding, so a fixed config is bit-reproducible at every
// worker count.
//
// The event-loop driver (fl.AsyncServer.RunRound): keep Concurrency jobs in
// flight on a virtual clock and install a new version every Buffer folds
// (FedBuff-style windows). A window runs plan → execute → account. Plan pops
// the Buffer completions in virtual-time order with everything that reads no
// training result — timeouts, reissues, failures and their replacements, the
// MaxStaleness drop rule, churn deferral — and scales each by a pluggable
// fl.StalenessPolicy of how many versions it is behind (PolynomialStaleness
// 1/(1+s)^α). Execute runs one work loop on each of the crew's W =
// fl.Config.Workers replicas: replica 0 folds the next step into the one
// accumulator in plan (= event) order as soon as it is trained, and otherwise
// every replica claims and trains the next step in plan order, against the
// exact version broadcast at its dispatch. A step starts only after the
// window's earlier steps of the same client are folded — claim scans the
// unfolded span for one — and the ring of 2W scratch sets bounds both what
// waits and that scan. Account releases the versions and adds the stats
// in the same order, and the window finalizes. Every dispatched job retains
// the version it was broadcast, so a replaced global stays resident until
// the last job trained against it is accounted, and only then recycles into
// a later finalize. Time is simulated, never measured: internal/simclock
// provides the event heap (ties break by dispatch sequence) and hash-seeded
// latency models that are pure functions of (seed, client, step); nothing in
// the loop calls time.Now.
//
// Both drivers return the same fl.RoundStats (the event loop's clock,
// staleness and reissue fields stay zero on the barrier server) and both
// Run methods take func(fl.RoundStats), so experiments.Trainer, every
// harness and flsim consume either through one code path. The contract that
// keeps the pair honest, asserted at tolerance 0 in fl and core for every
// strategy, gate on and off: zero latency + discount ≡ 1 +
// Concurrency == Buffer == K makes the event loop, at any Workers, bit-identical
// to the barrier driver at Workers = 1 — weights, strategy state and the
// whole stats struct — and any two runs of either with equal seeds are
// bit-identical; the event loop's are so at every Workers and IntraOp too,
// because its fold order is the event order. Entry points: flsim -async -staleness-alpha -latency-model
// -async-depth, heterobench -exp async-sweep, and experiments.Options.Async,
// which reroutes every harness's RunFL funnel through the event loop.
//
// # Arena-backed zero-allocation training hot path
//
// Every nn.Network owns a tensor.Arena, a recycler of per-batch tensors keyed
// by shape below the batch dimension (a client's short final batch runs in
// the full batch's buffers). Layers draw their outputs, input gradients, and scratch tensors
// from it, and the network resets the arena at the top of each Forward; the
// convolution kernels and the register-tiled matmuls (tensor.MatMul*, 4-wide
// column unrolling, bit-identical op order per accumulation target) run on
// those recycled buffers, so the steady state of fl.TrainLocal performs no
// heap allocation at all (BenchmarkTrainLocal: ≥99% fewer allocs/op than
// per-batch allocation).
//
// Convolutions pick their kernel from the layer geometry alone, by one rule
// (nn.Conv2D's type comment) that training — forward, dW and dx — and the
// frozen inference op share: a 1×1 stride-1 unpadded conv matmuls the image
// slice directly (its im2col matrix IS the image), a depthwise conv runs the
// plane kernels (tensor.DepthwiseConvPlane with the bias fused per plane,
// ...GradW and ...GradX once per sample over all its planes), and every other
// shape lowers to im2col + matmul, caching one
// column matrix per sample×group for backward. The two direct shapes size no
// column cache at all and accumulate in the lowered kernels' per-target
// order, so they are bit-identical to the lowering for finite inputs (the
// zero-skip caveat is stated once, on tensor.DepthwiseConvPlane).
//
// Ownership rules — who may retain a tensor across a Reset:
//
//   - Tensors returned by Network.Forward (and anything a layer allocated
//     from the arena) are valid only until the NEXT Forward on that network.
//     Callers that keep an output across batches must Clone it first.
//   - Network.Backward's return value survives later Forward passes: the
//     owning network copies the final input gradient into a small per-size
//     cache outside the arena (the numerical gradient checker depends on
//     this). It is still only valid until the NEXT Backward with a
//     same-size gradient, which reuses the cached buffer.
//   - Anything that outlives a batch must never come from the arena:
//     parameters, gradient accumulators, optimizer state, running BN
//     statistics, and weight snapshots all use plain tensor.New.
//   - Layer caches written in Forward and read in the matching Backward
//     (BatchNorm's, Dense's and conv's input reference, a lowered
//     conv's column matrices) MAY live in the arena: within one Reset-to-Reset window the arena
//     never hands out the same buffer twice.
//   - A nested Network embedded as a layer adopts its parent's arena via
//     SetArena and neither resets it nor detaches gradients — exactly one
//     owner resets per batch. SetArena(nil) disables recycling entirely
//     (the equivalence tests A/B this against the arena-backed path and
//     require bit-identical weights).
//   - Networks (and so arenas) are per-goroutine; the fl server keeps one
//     replica per worker. The loop-side batch buffers (inputs, targets,
//     loss gradient nn.Loss.Eval writes into) recycle through a pooled
//     scratch arena in fl, reset per batch before Forward runs.
//
// # Parallelism & determinism
//
// Training is parallel at one grain: the model. In the paper's setting every
// client trains its own model on its own device, so a worker trains one
// model at a time on the serial kernels, and Workers is the machine's one
// training-parallelism knob:
//
//   - Both fl drivers train W client replicas concurrently
//     (fl.Config.Workers) on one crew, one network + arena per replica —
//     the barrier server one shard per replica, the event loop one window's
//     steps claimed in order.
//   - The centralized harnesses train their independent models side by side
//     on opts.Workers through parallel.For: Table 2 / Fig 2 one model per
//     device type, Fig 7 its three averaging regimes. Each model keeps its
//     own RNG and arena, so their output is byte-identical at every worker
//     count by construction.
//
// The event loop's replica 0 folds in event order, so its results do not
// depend on W. The barrier server merges its shards' float64 sums and
// rounds to float32 once, at finalize, so the merge order W sets stays below
// float32 resolution; TestSyncPinsHoldAtEveryWorkerCount holds the pinned
// aggregation bytes at W = 1–4.
//
// The frozen (evaluation and serving) forward keeps a second, intra-op
// grain, and it splits one loop: each conv's sample×group iterations, across
// a persistent worker pool (internal/parallel), under the budget
// nn.Network.SetIntraOp grants. Every other frozen op and every matmul runs
// on the calling goroutine, so a batch-1 request runs on one core.
// fl.Config.IntraOp (-intraop) is that budget's total (0 = GOMAXPROCS); W
// concurrent replicas or models each get an equal parallel.Share of it, at
// least 1, so workers × convs never oversubscribe the machine, and a model
// that evaluates alone (Fig 3, Server.GlobalNet) gets the whole budget. A
// budget of 1 is byte-for-byte the serial loop.
//
// Fixed-partitioning invariant: parallel.Run splits the iteration range
// into contiguous chunks keyed only by (budget, length, grain) — never by
// dynamic stealing — and every iteration is computed entirely by one
// goroutine running the serial kernels, so the frozen forward is
// BIT-identical at every budget (TestFrozenBudgetsBitIdentical asserts tol 0
// and that the forward it checks took a split). A work-based grain
// (parallel.GrainFor) keeps small convs serial, and dispatch never queues: a
// chunk runs on an idle pool worker or inline on the caller, which makes
// nesting (frozen convs inside fl or model workers) deadlock-free. The
// dispatch path allocates nothing in steady state — the conv op is its own
// recycled parallel.Runner, preserving the zero-allocation hot path.
//
// # Inference fast path
//
// The server-side loop is eval-heavy: every round and every sweep cell runs
// full-dataset accuracy, loss, and fairness metrics on the current global
// model. nn.Network.Freeze compiles a network into an inference-only view
// (nn.Frozen) that strips every training-mode cost. The program has an op
// of its own only where it folds, fuses or recurses — a conv or dense layer
// with the BN and activation it absorbs, a residual sum, a Parallel or
// squeeze-excite block over frozen children; every other layer runs its own
// Forward(x, false), which writes no backward buffer (max pooling keeps no
// argmax and ReLU no mask outside training):
//
//   - Each BatchNorm2D directly following a Conv2D is folded into the
//     conv's weights and bias using the RUNNING statistics
//     (W′ = W·γ/√(var+ε), b′ = b·γ/√(var+ε) + β − mean·γ/√(var+ε)), so no
//     normalization pass runs at all. In all five bundled models every BN
//     and every activation is absorbed (TestFrozenProgramsFoldOrFuse); one
//     with no conv predecessor runs its layer's eval forward (after a Dense
//     that forward panics on the [N, Out] input, frozen or not).
//   - The activation is one vec.Act (identity, ReLU, hard-swish) from the
//     vector routines up to the compiler. A conv takes the act a folded
//     BatchNorm2D carries, or else a following ReLU layer; a dense takes a
//     following ReLU. A conv hands its per-row bias and act to the GEMM as
//     data (tensor.RowBias), and the vector GEMM applies them in its store,
//     so each output element is written once — no clear before it, no
//     sweep after it. The dense layer's per-column bias and ReLU are a
//     tensor.RowEpilogue, applied to each output row once the kernel has
//     finished it; the packed and int8 kernels sweep a conv's RowBias the
//     same way.
//   - Convs follow the training layer's geometry rule (see the arena
//     section): pointwise and depthwise shapes skip the lowering; the rest
//     keep one im2col scratch per conv-loop chunk instead of caching every
//     sample×group column matrix for a backward pass. A depthwise conv's
//     bias and act ride its plane kernel: with the vector kernels live a
//     3×3 plane is vec.Depthwise3x3, eight output positions per register
//     taking all nine taps, the bias and the act before one store.
//   - Global average pooling and the squeeze-excite squeeze sum several
//     planes side by side, one ascending chain each; the excite rescale and
//     the residual sum are vector sweeps. The squeeze-excite gate is one
//     hard-sigmoid sweep over the excitation, which the block's second dense
//     stores with its bias only. Training runs the same kernels.
//   - Max pooling, global pooling and the view layers run as their own
//     eval forward on the calling goroutine; nested Networks are inlined;
//     Identity compiles away.
//
// A frozen view shares its source network's arena and intra-op budget like
// any layer, is re-folded (not recompiled) on every Freeze call so it
// tracks weight updates, and allocates nothing in steady state. The arena
// replays the last request's sequence of tensor classes, so a repeated
// request takes each output tensor without hashing its shape.
//
// Contract boundary: BN folding reorders float operations, so the frozen
// forward is TOLERANCE-based — within 1e-5 max-abs of the reference eval
// forward with identical argmax on the test fixtures — while networks
// without folded BN (SqueezeNet) are bit-exact, and the frozen forward is
// itself bit-identical across intra-op budgets. Training paths are
// untouched: every tol-0 training bit-reproducibility contract (arena,
// workers, async) holds unchanged. Consumers forward through
// (*Network).Freeze: metrics.Accuracy / MultiLabelScores,
// fl.EvalLoss (per-client L_init, including inside server workers and the
// async completion loop), and the experiment eval sweeps. The reference
// forward ((*Network).Infer) remains the only path for anything that needs
// batch statistics or backward passes — training, gradient checks — and the
// oracle the frozen path is tested against (BenchmarkEval A/Bs the two).
//
// Loss evaluation on this path is value-only: nn.Loss has one method,
// Eval(grad, pred, target), and a nil grad skips the dL/d(pred) writes of the
// same loop, so the value is bit-identical while the eval loop (fl.EvalLoss)
// allocates and computes no gradient tensor at all
// (BenchmarkEvalLoss A/Bs nil against a materialized gradient).
//
// # Kernel backends & numerics tiers
//
// The matmul layer under the frozen path is a three-backend dispatch
// (internal/tensor/backend.go). Every tensor entry point belongs to exactly
// one of two numerics tiers (with the int8 backend occupying a documented
// looser corner of the tolerance tier):
//
//   - ORACLE tier — the six unfused entry points training uses
//     (tensor.MatMulInto, MatMulSlices, MatMulTransBInto,
//     MatMulTransBAccSlices, MatMulTransAAccInto, MatMulTransAAccSlices),
//     each a few lines filling one internal descriptor, run on the calling
//     goroutine. They run the
//     register-tiled kernels with their exact float-op order and never
//     dispatch: every tol-0 contract in the repo rides on this tier,
//     untouched by backend selection. The tier has a vector implementation
//     with the same bits, described next.
//   - TOLERANCE tier — the two fused-epilogue, weight-stationary entry
//     points the frozen path compiles to (MatMulWASlicesEp,
//     MatMulWBSlicesEp). These dispatch on the active backend and promise
//     ≤1e-5-per-unit closeness to the oracle result with identical argmax,
//     the same contract the BN fold already imposes on frozen outputs.
//
// Vector oracle kernels. On amd64 the oracle tier runs the AVX2 routines of
// internal/vec: the strided row-AXPY GEMM behind a@b and aᵀ@b (with the
// conv bias and activation in its store), the dot-form a@bᵀ, the 3×3
// depthwise forward (its bias and activation in its store too) and its input
// gradient in gather form at stride 1 and 2,
// the 3×3 depthwise weight gradient eight planes at a time, the aggregation
// step's fold (tensor.FoldScaled) and gate norm (tensor.SqDistLanes), and
// nn's batch norm with its activation — the forward's reduction and one
// normalise pass that stores act(γ·x̂ + β), the backward's reduction that
// recomputes x̂ and z and stores dz = act′(z)·dy, and the input-gradient
// sweep — and the squeeze-excite rescale and broadcast add. Each of them that
// applies an activation takes one vec.Act, the identity, ReLU or hard-swish.
// internal/vec's package doc states when they run (vec.Live: a CPU
// probe, no flag; `-tags purego` builds none) and the three kernel rules that
// keep them bit-identical to the Go loops — or, for the gate norm, keep every
// gate decision the serial loop's (FuzzGateMatchesSerial). What stays scalar
// on the training path: the im2col copy, the conv bias-gradient row sums, and
// the plane sums of pooling and squeeze-excite (side-by-side Go chains).
//
// The packed backend is a cache-blocked GEBP kernel: it packs B once into
// panel-major 4-wide column panels (zero-padded tail), k-blocks at 256 so
// the panel stays cache-resident, and runs a 2×4 register microkernel with
// the row epilogue applied to the finished rows, on the calling goroutine.
// Pack buffers recycle through a pool, preserving the frozen path's
// 0 allocs/op steady state. Packed outputs are bit-identical across
// concurrent replicas, which keeps the serving determinism contract
// (digests, histograms) intact per backend. Numerically, packed differs from
// the oracle only by k-block summation order (k > 256) and ±0/NaN edge
// cases; TestPackedMatchesOracle sweeps shapes against the 1e-5 + argmax
// contract.
//
// No run option selects a backend: every harness, binary and test runs the
// default, BackendAuto, which is the oracle tier on every build — bit-identical
// to BackendSerial — so a pure-Go build prints the default build's bytes. The
// packed and int8 kernels are reached only through tensor.SetBackend, which
// the benchmark's probes and the kernels' own tests call.
//
// # Int8 tier & weight-stationary forms
//
// BackendInt8 is the quantized rung of the tolerance tier. The weight
// operand of each frozen matmul is quantized symmetrically per output
// channel to 8 bits (biased-unsigned storage), the activation operand is
// quantized per row (dense) or per tensor (im2col) at call time, and the
// SWAR microkernel accumulates exact int32 dot products before a single
// float dequantize-and-epilogue per output row. Because the integer
// accumulation is exact, int8 outputs are bit-identical across concurrent
// replicas. The numeric promise is tensor.Int8Tol (5e-2
// relative, unit-floored) against the oracle with identical argmax;
// TestInt8MatchesOracle enforces it.
//
// Weights are stationary: each frozen matmul op owns a tensor.PackedWeights
// handle holding its weight version's packed forms (float GEBP panels, int8
// panels, per-channel scales). Freeze refreshes it once per version, and
// only with the forms the active backend consumes — none under auto. A
// PackedWeights never retains the source weight slice, and the int8
// inference path allocates nothing per batch once scratch pools are warm.
//
// # Serving
//
// internal/serve stands a prediction front end on the frozen inference path;
// cmd/flserve is its load-harness entry point. Three pieces:
//
//   - Version cache: serve.Store wraps the refcounted nn.VersionStore (the
//     same store behind the aggregation core's globals) and holds its live
//     version like any reader. Acquire retains the current version for one
//     request; Publish retains new weights as version N+1 and releases the
//     store's own reference to N. A version recycles the moment its last
//     reference is released, and TakeBuffer hands its buffer to the next
//     publisher. Resident versions are therefore bounded by request
//     lifetimes (1 + versions still being read), never by publish count.
//   - Micro-batching: requests admitted to the load harness join the forming
//     batch for the version current at THEIR admission. A batch flushes when
//     it reaches Config.MaxBatch, when Config.BatchBudget virtual time has
//     passed since its first request, or when a publish occurs — a batch
//     never mixes versions, so every request is served end-to-end by the
//     exact version it was admitted under. A flushed batch computes at
//     dispatch through Server.infer, PredictInto's own path: it borrows
//     one of Config.Workers frozen replicas (nn.ReplicaPool), each granted
//     IntraOp/Workers cores, runs the forward and returns the replica; a
//     replica reloads + re-folds weights only when the version it serves
//     changes (nn.Replica.Ensure), not per batch. The pin is released at
//     dispatch, so a batch in virtual service holds nothing but one of the
//     Workers service slots. A fully-shed or failed batch releases its
//     pin and never takes a slot, so a failed run leaves the pool full,
//     the store at Live()==1, and nothing leaked.
//   - Flush order: flushed batches start in FIFO order by default.
//     Config.Flush = FlushEDF (flserve -flush edf) starts them earliest-
//     deadline-first instead, deadline = oldest member's arrival +
//     Admission.Deadline. There is one forming batch and a monotone clock,
//     so flush order already is deadline order and both policies share one
//     FIFO ring (TestFlushEDFQueueIsDeadlineOrdered); they differ in one
//     decision. Under churn FIFO's publish-triggered flush lets the forming
//     batch (the newest arrivals) jump older queued batches onto the freed
//     worker; EDF never jumps the queue, so under overload it sheds
//     strictly fewer deadline-expired requests at equal offered load.
//   - Load harness: Server.RunLoad drives the stack in virtual time on a
//     single goroutine — seeded open-loop (Poisson) or closed-loop
//     (exponential think time) arrivals, an affine virtual service-time
//     model, and a power-of-two-bucket latency histogram (math.Frexp
//     bucketing, no libm). The steady-state request path performs zero heap
//     allocations (asserted by TestLoadSteadyStateZeroAlloc). Event
//     payloads live in a slot slab with a free stack, not a map: the
//     simclock ID is seq<<32 | slot, so IDs still compare by the unique,
//     increasing seq and the tie-break at one instant stays schedule order.
//     A negative, NaN or +Inf event instant or service duration fails the
//     run instead of reaching the clock. Report quantiles are nearest-rank
//     order statistics (index ceil(q·n)-1), so the printed p99 is the
//     smallest latency with ≥99% of requests at or below it; the latencies
//     are sorted by an O(n) LSD radix sort on their float64 bits (sort.Float64s
//     only for a negative or non-finite key) and the mean is summed in that
//     sorted order, so MeanLatency is bit-identical to the comparison sort's.
//
// Train-while-serve wiring: fl.AsyncServer.OnPublish fires synchronously
// from finalizeWindow for every window that installs a new global version
// (zero-weight windows publish nothing), with (version, weights, virtual
// time); the weights are only valid during the call — consumers copy them
// into a recycled buffer (serve.Store.TakeBuffer) and land them with
// Server.PublishAt(t, w), which advances the serving simulation to t and
// applies the publish on the shared virtual clock. Server.BeginTrainLoad /
// PublishAt / FinishTrainLoad run training completions and serving arrivals
// as one deterministic event stream (experiments.RunTrainServe, heterobench
// -exp train-serve); wired runs replace the synthetic PublishEvery churn knob and
// extend the Report with served-version staleness — how many versions
// behind the newest finalized global each request was served
// (min/mean/max + histogram, folded into the output digest). Unwired runs
// carry no staleness fields and print byte-identical reports to earlier
// releases.
//
// Determinism contract (asserted at tolerance 0 by the serve tests and
// diffed byte-for-byte by the CI flserve and train-while-serve smokes): a
// load run's Report — per-request output digest, latency histogram,
// quantiles, virtual throughput, staleness when wired — is a pure function
// of (model weights, LoadConfig, Config), bit-identical across runs and
// across every intra-op budget; version churn (publishes from the trainer,
// or PublishEvery republishing identical values) may legally shift batch
// boundaries and therefore the latency schedule, but never the outputs.
// Server.PredictInto is the synchronous concurrent entry point (real
// goroutines, no virtual time) and keeps only the output contract: results
// bit-identical to a serial reference regardless of interleaving with
// Publish.
//
// # Fault injection & robustness
//
// internal/faults provides seeded, composable client fault models, and the
// training/serving engines are hardened against exactly those faults. A
// faults.Model is parsed from a CLI spec (faults.ParseSpec, mirroring
// simclock.ParseModel): "crash:P" (a drawn job never completes), "flaky:P,R"
// (completes after R timeouts), "corrupt:P,MODE" (the returned delta is
// poisoned — nan, inf, blowup, or mix), and "churn:PERIOD,ON" (per-client
// on/off duty cycles in virtual time), combined with "+". Every draw is a
// pure hash of (seed, client, job), never an RNG stream, so fault fates
// replay identically run-to-run and are independent of scheduling.
//
// Hardened consumers:
//
//   - fl.AsyncServer arms a virtual-time timeout per dispatched job
//     (AsyncConfig.Timeout); an expired job is reissued against the CURRENT
//     global with exponential backoff (RetryBackoff doubled per attempt) up
//     to MaxAttempts, after which the client counts failed and its window
//     slot is refilled. Churned-off clients have their dispatch deferred to
//     the next on-window. AsyncConfig.MaxStaleness drops results staler
//     than the bound instead of folding them. RoundStats accounts for
//     all of it: Reissues, Failed, Deferred, StaleDropped, Rejected,
//     BytesWasted.
//   - The core's client step gates every update before it reaches an
//     accumulator: fl.Config.MaxDeltaNorm rejects deltas containing NaN/Inf
//     — whatever the bound — or with float64 L2 norm beyond it (0 = gate
//     off; +Inf = the non-finite check alone, what -faults arms by default:
//     it admits every finite delta and nothing else, an Inf element
//     included, which +Inf <= +Inf once let through). The gate tests prove a corrupted client's
//     update never perturbs the global weights — bit-identical (tol 0) to a
//     run where that client contributes nothing — under both drivers.
//   - internal/serve gains admission control (Config.Admission,
//     serve.ParseAdmission "DEPTH,DEADLINE"): arrivals beyond Depth pending
//     requests are shed immediately, and queued requests whose wait exceeds
//     Deadline are shed at service start, so closed-loop overload degrades
//     to deterministic rejections with a bounded p99 instead of unbounded
//     virtual queueing. Report gains Served/ShedQueue/ShedDeadline/
//     Reissues/MaxQueue, folded into the output digest when admission is
//     enabled.
//
// The load-bearing contract, asserted by the fault tests and the CI chaos
// smoke (seeded crash+flaky+corrupt+churn runs diffed byte-for-byte): with
// no faults configured every output is bit-identical to the pre-fault
// servers, and WITH faults configured a run is still a pure function of
// (config, seed) — chaos is deterministic. Flags: flsim/heterobench
// -faults, -max-delta-norm, -fault-timeout, -fault-backoff,
// -fault-attempts, -max-staleness; flserve -admission
// (experiments.Options.Faults/MaxDeltaNorm and AsyncOptions for library
// callers).
//
// The root package exists to carry the repository-level benchmarks in
// bench_test.go, one per table and figure of the paper's evaluation, plus
// the aggregation-pipeline benchmarks.
package heteroswitch
