// Package rng provides a small, fast, deterministic pseudo-random number
// generator used throughout the simulator.
//
// The simulator must be reproducible across runs, Go releases and platforms:
// the same seed must yield the same injected traffic, the same arbitration
// tie-breaks and therefore the same deadlocks. The standard library's
// math/rand source has changed algorithms between Go versions, so we carry
// our own implementation of xoshiro256** (Blackman & Vigna), seeded via
// SplitMix64.
package rng

import "math"

// Source is a xoshiro256** pseudo-random number generator. The zero value is
// not usable; construct with New. Source is not safe for concurrent use; the
// simulator owns one Source per run.
type Source struct {
	s0, s1, s2, s3 uint64
}

// New returns a Source deterministically derived from seed using SplitMix64,
// so that nearby seeds (0, 1, 2, ...) still produce decorrelated streams.
func New(seed uint64) *Source {
	var r Source
	r.Reseed(seed)
	return &r
}

// Reseed resets the generator state as if the Source had been created with
// New(seed).
func (r *Source) Reseed(seed uint64) {
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	r.s0, r.s1, r.s2, r.s3 = next(), next(), next(), next()
	// xoshiro must not be seeded with the all-zero state.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 0x9e3779b97f4a7c15
	}
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 pseudo-random bits.
func (r *Source) Uint64() uint64 {
	result := rotl(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Intn returns a uniform pseudo-random int in [0, n). It panics if n <= 0.
// It uses Lemire's multiply-shift rejection method, which is unbiased and
// avoids the modulo.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	un := uint64(n)
	hi, lo := mul64(r.Uint64(), un)
	if lo < un {
		thresh := -un % un
		for lo < thresh {
			hi, lo = mul64(r.Uint64(), un)
		}
	}
	return int(hi)
}

// mul64 returns the 128-bit product of x and y as (hi, lo).
func mul64(x, y uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	x0, x1 := x&mask32, x>>32
	y0, y1 := y&mask32, y>>32
	w0 := x0 * y0
	t := x1*y0 + w0>>32
	w1 := t&mask32 + x0*y1
	hi = x1*y1 + t>>32 + w1>>32
	lo = x * y
	return
}

// Float64 returns a uniform pseudo-random float64 in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Bernoulli reports true with probability p (clamped to [0,1]).
func (r *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// FirstBelow draws up to max values and returns the index of the first whose
// top 53 bits are below thresh, or max if none is; draws after the hit are
// not made. With thresh = ceil(p·2⁵³) the test is exactly Float64() < p —
// both sides are exact in float64 — so a scan for the first success among
// max Bernoulli(p) trials, 0 < p < 1, consumes the stream draw for draw as a
// loop of Bernoulli calls would, with the generator state in registers.
func (r *Source) FirstBelow(thresh uint64, max int) int {
	s0, s1, s2, s3 := r.s0, r.s1, r.s2, r.s3
	i := 0
	for i < max {
		result := rotl(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = rotl(s3, 45)
		if result>>11 < thresh {
			break
		}
		i++
	}
	r.s0, r.s1, r.s2, r.s3 = s0, s1, s2, s3
	return i
}

// Perm returns a pseudo-random permutation of [0, n) using Fisher–Yates.
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle pseudo-randomly permutes the order of n elements using the
// provided swap function, following the same contract as rand.Shuffle.
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// ExpFloat64 returns an exponentially distributed float64 with rate 1,
// suitable for Poisson-process inter-arrival sampling.
func (r *Source) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Split returns a new Source whose stream is decorrelated from r's, for
// handing independent streams to per-node or per-run consumers.
func (r *Source) Split() *Source {
	return New(r.Uint64())
}
