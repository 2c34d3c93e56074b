// Package rng provides a deterministic, splittable pseudo-random number
// generator for parallel trace synthesis.
//
// Every job (and every node within a job) draws from an independent
// substream derived from (seed, stream identifiers). Substreams are cheap to
// create and statistically independent, so a worker pool of any size
// produces bit-identical datasets for the same seed — a requirement for a
// reproducible open-source trace release.
//
// The core generator is xoshiro256**, seeded through splitmix64, which is
// the initialization recommended by its authors.
package rng

import "math"

// Source is a deterministic xoshiro256** stream.
type Source struct {
	s    [4]uint64
	seed uint64 // seed the stream was created from; anchors Split
	// cached second normal deviate from the polar method
	hasGauss bool
	gauss    float64
}

// splitmix64 advances x and returns the next splitmix64 output.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a stream seeded from seed.
func New(seed uint64) *Source {
	s := Source{seed: seed}
	x := seed
	for i := range s.s {
		s.s[i] = splitmix64(&x)
	}
	// xoshiro must not start from the all-zero state.
	if s.s[0]|s.s[1]|s.s[2]|s.s[3] == 0 {
		s.s[0] = 0x9e3779b97f4a7c15
	}
	return &s
}

// Split derives an independent substream identified by ids. The same
// (receiver seed, ids) pair always yields the same substream, regardless of
// how many values the parent has produced.
func (s *Source) Split(ids ...uint64) *Source {
	// Mix the parent's seed with the ids through splitmix64.
	x := s.seed ^ 0xa0761d6478bd642f
	for _, id := range ids {
		x ^= splitmix64(&x) ^ (id+1)*0xe7037ed1a0b428db
		splitmix64(&x)
	}
	return New(x)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (s *Source) Uint64() uint64 {
	r := rotl(s.s[1]*5, 7) * 9
	t := s.s[1] << 17
	s.s[2] ^= s.s[0]
	s.s[3] ^= s.s[1]
	s.s[1] ^= s.s[2]
	s.s[0] ^= s.s[3]
	s.s[2] ^= t
	s.s[3] = rotl(s.s[3], 45)
	return r
}

// Float64 returns a uniform deviate in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) * (1.0 / (1 << 53))
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation is overkill here; a
	// simple multiply-shift has negligible bias for n << 2^64.
	hi, _ := mul64(s.Uint64(), uint64(n))
	return int(hi)
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	t := a1*b0 + (a0*b0)>>32
	w1 := t&mask + a0*b1
	return a1*b1 + t>>32 + w1>>32, a * b
}

// Norm returns a standard normal deviate (Marsaglia polar method).
func (s *Source) Norm() float64 {
	if s.hasGauss {
		s.hasGauss = false
		return s.gauss
	}
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q == 0 || q >= 1 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(q) / q)
		s.gauss = v * f
		s.hasGauss = true
		return u * f
	}
}

// Normal returns a normal deviate with the given mean and standard deviation.
func (s *Source) Normal(mean, stddev float64) float64 {
	return mean + stddev*s.Norm()
}

// TruncNormal returns a normal deviate rejected into [lo, hi]. To stay
// total for pathological bounds it falls back to clamping after a bounded
// number of rejections.
func (s *Source) TruncNormal(mean, stddev, lo, hi float64) float64 {
	for i := 0; i < 64; i++ {
		v := s.Normal(mean, stddev)
		if v >= lo && v <= hi {
			return v
		}
	}
	v := s.Normal(mean, stddev)
	return math.Max(lo, math.Min(hi, v))
}

// Exp returns an exponential deviate with the given mean. Mean must be > 0.
func (s *Source) Exp(mean float64) float64 {
	u := s.Float64()
	for u == 0 {
		u = s.Float64()
	}
	return -mean * math.Log(u)
}

// LogNormal returns exp(Normal(mu, sigma)): a log-normal deviate whose
// underlying normal has mean mu and stddev sigma.
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(s.Normal(mu, sigma))
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool { return s.Float64() < p }

// Shuffle randomizes the order of n elements using the provided swap.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, s.Intn(i+1))
	}
}

// Choice returns an index in [0, len(weights)) with probability
// proportional to weights[i]. All weights must be non-negative, and at
// least one must be positive.
func (s *Source) Choice(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w < 0 {
			panic("rng: negative weight")
		}
		total += w
	}
	if total <= 0 {
		panic("rng: all weights zero")
	}
	target := s.Float64() * total
	var acc float64
	for i, w := range weights {
		acc += w
		if target < acc {
			return i
		}
	}
	return len(weights) - 1
}
