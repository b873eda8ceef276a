// Package rng supplies the deterministic random streams used throughout the
// AISLE simulator. Every stochastic component — network jitter, instrument
// noise, LLM defect injection, optimizer candidate sampling — draws from a
// Stream forked from a single experiment seed, so entire multi-facility
// campaigns replay bit-identically.
//
// The generator is SplitMix64, which passes BigCrush, is allocation-free,
// and — crucially for reproducibility — supports cheap deterministic
// sub-stream forking: Fork(label) derives an independent stream from the
// parent seed and a label hash, so adding a new consumer never perturbs the
// draws seen by existing ones.
package rng

import (
	"math"
)

// Stream is a deterministic pseudo-random stream. The zero value is a valid
// stream seeded with zero; prefer New or Fork for independent streams.
type Stream struct {
	state uint64
}

// New returns a stream seeded from seed.
func New(seed uint64) *Stream {
	s := &Stream{state: seed}
	// Warm up so nearby seeds diverge immediately.
	s.Uint64()
	return s
}

// fnv1a hashes a label for sub-stream derivation.
func fnv1a(s string) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// Fork derives an independent stream keyed by label. Forking the same label
// from streams with equal state yields equal children, and distinct labels
// yield (with overwhelming probability) uncorrelated children.
func (s *Stream) Fork(label string) *Stream {
	return New(s.state ^ fnv1a(label) ^ 0x9e3779b97f4a7c15)
}

// Uint64 advances the stream (SplitMix64).
func (s *Stream) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform draw in [0,1).
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform draw in [0,n). It panics if n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Bool returns true with probability p.
func (s *Stream) Bool(p float64) bool {
	return s.Float64() < p
}

// Range returns a uniform draw in [lo,hi).
func (s *Stream) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// Normal returns a draw from N(mean, stddev²) via Box-Muller (single value;
// the pair's second half is discarded to keep the stream stateless).
func (s *Stream) Normal(mean, stddev float64) float64 {
	// Avoid log(0).
	u1 := 1 - s.Float64()
	u2 := s.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// LogNormal returns exp(N(mu, sigma²)); mu/sigma are log-space parameters.
func (s *Stream) LogNormal(mu, sigma float64) float64 {
	return math.Exp(s.Normal(mu, sigma))
}

// Exponential returns a draw with the given mean (i.e. rate 1/mean).
func (s *Stream) Exponential(mean float64) float64 {
	return -mean * math.Log(1-s.Float64())
}

// Triangular returns a draw from a triangular distribution on [lo,hi] with
// the given mode, a convenient shape for task-duration modelling.
func (s *Stream) Triangular(lo, mode, hi float64) float64 {
	u := s.Float64()
	c := (mode - lo) / (hi - lo)
	if u < c {
		return lo + math.Sqrt(u*(hi-lo)*(mode-lo))
	}
	return hi - math.Sqrt((1-u)*(hi-lo)*(hi-mode))
}

// Perm returns a deterministic Fisher-Yates permutation of [0,n).
func (s *Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// LatinHypercube returns n samples in the d-dimensional unit cube arranged
// as a Latin hypercube: each dimension's marginal is stratified into n equal
// bins with exactly one sample per bin. Used to seed Bayesian optimisation.
func (s *Stream) LatinHypercube(n, d int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, d)
	}
	for j := 0; j < d; j++ {
		perm := s.Perm(n)
		for i := 0; i < n; i++ {
			out[i][j] = (float64(perm[i]) + s.Float64()) / float64(n)
		}
	}
	return out
}
