package fl

import (
	"heteroswitch/internal/dataset"
	"heteroswitch/internal/frand"
	"heteroswitch/internal/nn"
	"heteroswitch/internal/tensor"
)

// trainBatch runs one training-mode loss evaluation on samples [lo, hi),
// batching through the pooled dataset.BatchScratch (shared with the
// eval-side harnesses in internal/metrics). The gradient lands in a recycled
// scratch buffer; the caller may pass it to net.Backward before the next
// batch.
func trainBatch(bs *dataset.BatchScratch, net *nn.Network, loss nn.Loss, ds *dataset.Dataset,
	lo, hi int) (float64, *tensor.Tensor) {
	x, y, labels := bs.Next(ds, lo, hi)
	target := batchTarget(y, labels)
	out := net.Forward(x, true)
	grad := bs.Alloc(out.Shape()...)
	return loss.Eval(grad, out, target), grad
}

// batchTarget wraps a BatchScratch window's targets: dense for multi-label,
// class indices otherwise.
func batchTarget(y *tensor.Tensor, labels []int) nn.Target {
	if y != nil {
		return nn.DenseTarget(y)
	}
	return nn.ClassTarget(labels)
}

// EvalLoss computes the mean loss of the network on ds in inference mode —
// L_init in Algorithm 1 terms. It handles both single- and multi-label data
// and forwards through one frozen inference replica: BN folded to the running
// statistics, activations fused, no backward caches. The loss is evaluated
// value-only (nil grad) — no gradient is computed or materialized on this
// pure-inference path.
func EvalLoss(net *nn.Network, loss nn.Loss, ds *dataset.Dataset, batch int) float64 {
	if ds.Len() == 0 {
		return 0
	}
	inf := net.Freeze()
	bs := dataset.GetBatchScratch()
	defer dataset.PutBatchScratch(bs)
	var total float64
	bs.ForBatches(ds, batch, func(lo, hi int, x, y *tensor.Tensor, labels []int) {
		out := inf.Infer(x)
		total += loss.Eval(nil, out, batchTarget(y, labels)) * float64(hi-lo)
	})
	return total / float64(ds.Len())
}

// StepHook observes/adjusts parameter gradients right before each SGD step;
// FedProx adds its proximal pull here and SCAFFOLD its control variates.
type StepHook func(params []*nn.Param)

// BatchHook runs after each SGD step; HeteroSwitch maintains its per-batch
// SWA average here. batchIdx counts steps from 0 across all epochs.
type BatchHook func(net *nn.Network, batchIdx int)

// TrainLocal runs cfg.LocalEpochs of minibatch SGD on the client dataset and
// returns the running mean of batch losses (Algorithm 1's L_train). Batches
// are reshuffled each epoch from rng. stepHook and batchHook may be nil.
//
// The steady state of the loop is allocation-free: batch inputs, targets,
// and the loss gradient recycle through a pooled scratch arena, and every
// layer's outputs/gradients recycle through the network's own arena.
func TrainLocal(net *nn.Network, ds *dataset.Dataset, cfg Config, loss nn.Loss,
	rng *frand.RNG, stepHook StepHook, batchHook BatchHook) float64 {
	opt := nn.SGD{LR: cfg.LR}
	params := net.Params()
	var lossSum float64
	batchIdx := 0
	order := make([]int, ds.Len())
	for i := range order {
		order[i] = i
	}
	// One reusable shuffled view: only the sample headers move per epoch,
	// instead of allocating a fresh Subset dataset every epoch.
	shuffled := &dataset.Dataset{
		Samples:    make([]dataset.Sample, ds.Len()),
		NumClasses: ds.NumClasses,
	}
	bs := dataset.GetBatchScratch()
	defer dataset.PutBatchScratch(bs)
	for e := 0; e < cfg.LocalEpochs; e++ {
		rng.ShuffleInts(order)
		for i, j := range order {
			shuffled.Samples[i] = ds.Samples[j]
		}
		for lo := 0; lo < shuffled.Len(); lo += cfg.BatchSize {
			hi := min(lo+cfg.BatchSize, shuffled.Len())
			l, gradT := trainBatch(bs, net, loss, shuffled, lo, hi)
			net.BackwardParams(gradT)
			if stepHook != nil {
				stepHook(params)
			}
			opt.Step(params)
			if batchHook != nil {
				batchHook(net, batchIdx)
			}
			lossSum += l
			batchIdx++
		}
	}
	if batchIdx == 0 {
		return 0
	}
	return lossSum / float64(batchIdx)
}
