package frand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d identical outputs of 100", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	r := New(0)
	if r.Uint64() == 0 && r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced a degenerate stream")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat32Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 10000; i++ {
		f := r.Float32()
		if f < 0 || f >= 1 {
			t.Fatalf("Float32 out of [0,1): %v", f)
		}
	}
}

func TestUniformRange(t *testing.T) {
	r := New(7)
	for i := 0; i < 1000; i++ {
		f := r.Uniform(-2, 3)
		if f < -2 || f >= 3 {
			t.Fatalf("Uniform out of [-2,3): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(99)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean of uniform = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	counts := make([]int, 10)
	for i := 0; i < 100000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) out of range: %d", v)
		}
		counts[v]++
	}
	for i, c := range counts {
		if c < 8000 || c > 12000 {
			t.Fatalf("Intn(10) bucket %d has count %d, not near uniform", i, c)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(5)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		x := r.NormFloat64()
		sum += x
		sumsq += x * x
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestNormalScaling(t *testing.T) {
	r := New(5)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Normal(10, 2)
	}
	if math.Abs(sum/n-10) > 0.05 {
		t.Fatalf("Normal(10,2) mean = %v", sum/n)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(11)
	for _, n := range []int{0, 1, 2, 17, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestPermProperty(t *testing.T) {
	r := New(13)
	f := func(nRaw uint8) bool {
		n := int(nRaw)%64 + 1
		p := r.Perm(n)
		sum := 0
		for _, v := range p {
			sum += v
		}
		return sum == n*(n-1)/2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChoiceDistinct(t *testing.T) {
	r := New(17)
	idx := r.Choice(20, 5)
	if len(idx) != 5 {
		t.Fatalf("Choice returned %d items", len(idx))
	}
	seen := map[int]bool{}
	for _, v := range idx {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("Choice invalid: %v", idx)
		}
		seen[v] = true
	}
}

func TestWeightedChoiceRespectsWeights(t *testing.T) {
	r := New(23)
	w := []float64{0, 1, 0, 3}
	counts := make([]int, 4)
	for i := 0; i < 40000; i++ {
		counts[r.WeightedChoice(w)]++
	}
	if counts[0] != 0 || counts[2] != 0 {
		t.Fatalf("zero-weight index sampled: %v", counts)
	}
	ratio := float64(counts[3]) / float64(counts[1])
	if ratio < 2.6 || ratio > 3.4 {
		t.Fatalf("weight ratio = %v, want ~3", ratio)
	}
}

func TestWeightedChoicePanicsOnAllZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for all-zero weights")
		}
	}()
	New(1).WeightedChoice([]float64{0, 0})
}

func TestWeightedSampleNoReplaceDistinct(t *testing.T) {
	r := New(29)
	w := []float64{1, 2, 3, 4, 5}
	got := r.WeightedSampleNoReplace(w, 5)
	seen := map[int]bool{}
	for _, v := range got {
		if seen[v] {
			t.Fatalf("duplicate index %d in %v", v, got)
		}
		seen[v] = true
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(31)
	c1 := parent.Split()
	c2 := parent.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("children look correlated: %d collisions", same)
	}
}

func TestSplitNamedStable(t *testing.T) {
	a := New(37)
	b := New(37)
	ca := a.SplitNamed("camera")
	cb := b.SplitNamed("camera")
	for i := 0; i < 100; i++ {
		if ca.Uint64() != cb.Uint64() {
			t.Fatal("SplitNamed not deterministic across identical parents")
		}
	}
}

func TestSplitNamedDistinctLabels(t *testing.T) {
	a := New(37)
	b := New(37)
	ca := a.SplitNamed("camera")
	cb := b.SplitNamed("scene")
	same := 0
	for i := 0; i < 100; i++ {
		if ca.Uint64() == cb.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different labels yielded correlated streams: %d", same)
	}
}

func TestShuffleSwapContract(t *testing.T) {
	r := New(41)
	s := []string{"a", "b", "c", "d", "e"}
	orig := map[string]bool{}
	for _, v := range s {
		orig[v] = true
	}
	idx := []int{0, 1, 2, 3, 4}
	r.ShuffleInts(idx)
	seen := map[string]bool{}
	for _, i := range idx {
		seen[s[i]] = true
	}
	if len(seen) != len(orig) {
		t.Fatalf("shuffle lost element, got %v", idx)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkNormFloat64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.NormFloat64()
	}
}

// Draws no binary makes. They stay test-side, each under the test that pins
// it, so the statistical contracts above keep running against the same
// Uint64/Float64/NormFloat64 streams.

// Float32 returns a uniform float32 in [0, 1).
func (r *RNG) Float32() float32 {
	return float32(r.Uint64()>>40) * (1.0 / (1 << 24))
}

// Normal returns a normal variate with the given mean and standard deviation.
func (r *RNG) Normal(mean, std float64) float64 {
	return mean + std*r.NormFloat64()
}

// WeightedChoice returns one index in [0, len(w)) sampled proportionally to
// the non-negative weights w. It panics if all weights are zero or negative.
func (r *RNG) WeightedChoice(w []float64) int {
	var total float64
	for _, x := range w {
		if x > 0 {
			total += x
		}
	}
	if total <= 0 {
		panic("frand: WeightedChoice with no positive weights")
	}
	t := r.Float64() * total
	for i, x := range w {
		if x <= 0 {
			continue
		}
		t -= x
		if t < 0 {
			return i
		}
	}
	return len(w) - 1
}

// WeightedSampleNoReplace returns k distinct indices sampled without
// replacement proportional to w (sequential removal). Panics if fewer than k
// weights are positive.
func (r *RNG) WeightedSampleNoReplace(w []float64, k int) []int {
	cp := make([]float64, len(w))
	copy(cp, w)
	out := make([]int, 0, k)
	for len(out) < k {
		i := r.WeightedChoice(cp)
		out = append(out, i)
		cp[i] = 0
	}
	return out
}
