// Package frand provides a small, fast, deterministic, splittable
// pseudo-random number generator used throughout the repository.
//
// All randomness in the simulator — sensor noise, scene generation, client
// sampling, weight initialization, data shuffling — flows through frand so
// that every experiment is exactly reproducible from a single seed. The
// generator is xoshiro256** seeded via SplitMix64, following the
// recommendations of Blackman & Vigna. It is NOT cryptographically secure.
package frand

import "math"

// RNG is a deterministic pseudo-random number generator. The zero value is
// not usable; construct with New. RNG is not safe for concurrent use: give
// each goroutine its own RNG via Split.
type RNG struct {
	s [4]uint64
	// cached second output of Box-Muller for NormFloat64
	hasGauss bool
	gauss    float64
}

// splitmix64 advances the state and returns the next SplitMix64 output.
// It is used to expand a single 64-bit seed into the 256-bit xoshiro state.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns an RNG seeded from the given 64-bit seed. Two RNGs built from
// the same seed produce identical streams.
func New(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// xoshiro must not start from the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits (xoshiro256**).
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Split derives an independent child generator. The parent stream advances;
// the child's stream is statistically independent of subsequent parent
// output. Use Split to hand deterministic sub-streams to workers, devices,
// clients, etc.
func (r *RNG) Split() *RNG {
	return New(r.Uint64() ^ 0xa5a5a5a55a5a5a5a)
}

// SplitNamed derives a child generator whose stream depends on both the
// parent state and the given label, so the same parent can deterministically
// produce distinct streams for named subsystems regardless of call order of
// other Splits.
func (r *RNG) SplitNamed(label string) *RNG {
	h := uint64(14695981039346656037) // FNV-1a offset basis
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	return New(r.Uint64() ^ h)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Uniform returns a uniform float64 in [lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("frand: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation.
	x := r.Uint64()
	m := uint64(n)
	hi, lo := mul64(x, m)
	if lo < m {
		thresh := (-m) % m
		for lo < thresh {
			x = r.Uint64()
			hi, lo = mul64(x, m)
		}
	}
	return int(hi)
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	t := a1*b0 + (a0*b0)>>32
	w1 := t & mask
	w2 := t >> 32
	w1 += a0 * b1
	hi = a1*b1 + w2 + (w1 >> 32)
	lo = a * b
	return
}

// NormFloat64 returns a standard normal variate (Box-Muller with caching).
func (r *RNG) NormFloat64() float64 {
	if r.hasGauss {
		r.hasGauss = false
		return r.gauss
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(s) / s)
	r.gauss = v * f
	r.hasGauss = true
	return u * f
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
	return p
}

// ShuffleInts shuffles the slice in place (Fisher-Yates).
func (r *RNG) ShuffleInts(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Choice returns k distinct indices sampled uniformly without replacement
// from [0, n). It panics if k > n or k < 0.
func (r *RNG) Choice(n, k int) []int {
	if k < 0 || k > n {
		panic("frand: Choice k out of range")
	}
	p := r.Perm(n)
	return p[:k]
}
