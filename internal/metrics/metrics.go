// Package metrics evaluates trained models and computes the statistics the
// paper reports: accuracy, cross-device variance, worst-case accuracy
// (domain generalization), model-quality degradation matrices, multi-label
// averaged precision (FLAIR), and regression deviation (ECG).
package metrics

import (
	"sort"

	"heteroswitch/internal/dataset"
	"heteroswitch/internal/nn"
	"heteroswitch/internal/tensor"
)

// Accuracy returns the single-label classification accuracy of net on ds,
// evaluated with the given batch size through one frozen inference replica
// (BN folded, activations fused). Batches recycle through the
// pooled dataset.BatchScratch, so sweeps over many devices or degrees
// allocate no per-batch buffers.
func Accuracy(net *nn.Network, ds *dataset.Dataset, batch int) float64 {
	if ds.Len() == 0 {
		return 0
	}
	bs := dataset.GetBatchScratch()
	defer dataset.PutBatchScratch(bs)
	return accuracyOn(net.Freeze(), bs, ds, batch)
}

// accuracyOn is the shared accuracy loop: one inference surface, one
// scratch, one dataset.
func accuracyOn(inf nn.Inference, bs *dataset.BatchScratch, ds *dataset.Dataset, batch int) float64 {
	if ds.Len() == 0 {
		return 0
	}
	correct := 0
	bs.ForBatches(ds, batch, func(lo, hi int, x, _ *tensor.Tensor, labels []int) {
		if labels == nil {
			// Multi-label data has no single label to match (Sample.Label is
			// -1); every prediction counts as wrong, matching the previous
			// ds.Batch behaviour. Use MeanAveragePrecision for these sets.
			return
		}
		pred := inf.Infer(x).ArgMaxRows()
		for i, p := range pred {
			if p == labels[i] {
				correct++
			}
		}
	})
	return float64(correct) / float64(ds.Len())
}

// Mean returns the arithmetic mean of vs (0 for empty input).
func Mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var s float64
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

// Variance returns the population variance of vs. The paper reports accuracy
// variance across device types in percentage-point² units; callers scale
// accuracies to percent before calling when reproducing those tables.
func Variance(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	m := Mean(vs)
	var s float64
	for _, v := range vs {
		d := v - m
		s += d * d
	}
	return s / float64(len(vs))
}

// Worst returns the minimum value (the worst-case accuracy used as the DG
// metric). Returns 0 for empty input.
func Worst(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	w := vs[0]
	for _, v := range vs[1:] {
		if v < w {
			w = v
		}
	}
	return w
}

// Degradation returns the paper's "model quality degradation" between a
// reference accuracy and an observed accuracy: (ref - acc) / ref, reported
// as a fraction (multiply by 100 for the paper's percentages). Zero ref
// yields zero.
func Degradation(ref, acc float64) float64 {
	if ref <= 0 {
		return 0
	}
	d := (ref - acc) / ref
	return d
}

// Values extracts map values ordered by key, for stable reporting.
func Values(m map[int]float64) []float64 {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	out := make([]float64, len(keys))
	for i, k := range keys {
		out[i] = m[k]
	}
	return out
}

// AveragePrecision computes the area under the precision-recall curve for
// one class given per-sample scores and binary relevance, using the standard
// "sum of precision at each positive" estimator. Returns 0 when there are
// no positives.
func AveragePrecision(scores []float64, relevant []bool) float64 {
	n := len(scores)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
	var hits int
	var sum float64
	for rank, i := range idx {
		if relevant[i] {
			hits++
			sum += float64(hits) / float64(rank+1)
		}
	}
	if hits == 0 {
		return 0
	}
	return sum / float64(hits)
}

// MeanAveragePrecision computes macro-averaged AP across classes for a
// multi-label dataset: scores is [N, C] model outputs (higher = more
// confident), labels is [N, C] with {0,1} relevance.
func MeanAveragePrecision(scores, labels *tensor.Tensor) float64 {
	n, c := scores.Dim(0), scores.Dim(1)
	var sum float64
	classes := 0
	col := make([]float64, n)
	rel := make([]bool, n)
	for j := 0; j < c; j++ {
		pos := 0
		for i := 0; i < n; i++ {
			col[i] = float64(scores.At(i, j))
			rel[i] = labels.At(i, j) > 0.5
			if rel[i] {
				pos++
			}
		}
		if pos == 0 {
			continue
		}
		sum += AveragePrecision(col, rel)
		classes++
	}
	if classes == 0 {
		return 0
	}
	return sum / float64(classes)
}

// MultiLabelScores runs the network over a multi-label dataset through one
// frozen inference replica and returns the raw score matrix alongside the
// label matrix.
func MultiLabelScores(net *nn.Network, ds *dataset.Dataset, batch int) (scores, labels *tensor.Tensor) {
	n := ds.Len()
	scores = tensor.New(n, ds.NumClasses)
	labels = tensor.New(n, ds.NumClasses)
	inf := net.Freeze()
	bs := dataset.GetBatchScratch()
	defer dataset.PutBatchScratch(bs)
	bs.ForBatches(ds, batch, func(lo, hi int, x, y *tensor.Tensor, _ []int) {
		out := inf.Infer(x)
		copy(scores.Data()[lo*ds.NumClasses:hi*ds.NumClasses], out.Data())
		copy(labels.Data()[lo*ds.NumClasses:hi*ds.NumClasses], y.Data())
	})
	return scores, labels
}
