package tensor

import (
	"fmt"

	"heteroswitch/internal/vec"
)

// The aggregation step's float64 sweeps: the accumulator fold and the gate's
// squared distance, once per client update. The Go loops are the whole
// implementation where vec.Live is off and the tail (len%4) where it is on.

// FoldScaled computes dst[j] += w·float64(src[j]) for j < len(src). Every
// element is its own target, so the vector form is bit-identical.
func FoldScaled(dst []float64, src []float32, w float64) {
	mustCover("fold", len(src), len(dst))
	if vec.Live {
		head := vec.FoldScaled(dst, src, w)
		dst, src = dst[head:], src[head:]
	}
	dst = dst[:len(src)]
	for j, v := range src {
		dst[j] += w * float64(v)
	}
}

// mustCover panics unless a sweep's other operand has all n elements.
func mustCover(sweep string, n, have int) {
	if have < n {
		panic(fmt.Sprintf("tensor: %s over %d elements: an operand of %d is too short", sweep, n, have))
	}
}

// SqDist returns ss + Σ_j (float64(a[j]) − float64(b[j]))² as ONE float64
// chain in ascending j, continuing the chain passed in: the serial oracle of
// the validation gate, in every build.
func SqDist(ss float64, a, b []float32) float64 {
	mustCover("squared distance", len(a), len(b))
	b = b[:len(a)]
	for j, v := range a {
		d := float64(v) - float64(b[j])
		ss += d * d
	}
	return ss
}

// SqDistLanes returns ss plus SqDist's terms, bit for bit, summed in LANE
// order (vec.SqDist) where vec.Live is on; it is SqDist where it is off. It
// is the one kernel laned ALONG a reduction, under internal/vec's third rule:
// the consumer is a DECISION, and a proven guard (fl.updateValid's) sends
// every input the reassociation could flip back to SqDist. Two facts make
// that guard possible. A term is NaN or +Inf in one order iff in every order,
// and finite terms cannot overflow the sum (each is below 2²⁵⁸), so this sum
// is non-finite iff SqDist's is. And n non-negative terms added in any order
// land within γₙ = n·2⁻⁵³/(1 − n·2⁻⁵³), relatively, of their exact sum, so
// two orders differ by less than 2γₙ/(1 − γₙ) of either.
func SqDistLanes(ss float64, a, b []float32) float64 {
	if vec.Live && len(b) >= len(a) { // SqDist rejects a short b
		if s, head := vec.SqDist(a, b); head > 0 {
			ss += s
			a, b = a[head:], b[head:]
		}
	}
	return SqDist(ss, a, b)
}
