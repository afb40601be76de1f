// Package xrand provides a small, deterministic pseudo-random number
// generator with the distribution samplers the reproduction needs
// (uniform, exponential, Beta, binomial, categorical).
//
// Every experiment in the repository threads an explicit *xrand.Rand seeded
// from a fixed constant, so all tables and figures are bit-for-bit
// reproducible across runs and platforms. The generator is xoshiro256**
// seeded via splitmix64, following the reference implementations by
// Blackman and Vigna.
//
// A *Rand is NOT safe for concurrent use; give each goroutine its own
// stream via Split.
package xrand

import "math"

// Rand is a deterministic pseudo-random number generator.
// The zero value is not usable; construct with New.
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from seed via splitmix64, so that nearby
// seeds yield unrelated streams.
func New(seed uint64) *Rand {
	r := &Rand{}
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	// xoshiro must not be seeded with all zeros; splitmix64 of any seed
	// cannot produce four zero words, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return r
}

// Split derives an independent generator from the current stream. It is the
// supported way to hand deterministic sub-streams to concurrent workers.
func (r *Rand) Split() *Rand {
	return New(r.Uint64() ^ 0xd1b54a32d192ed03)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() uint64 {
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

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn called with n <= 0")
	}
	// Lemire's nearly-divisionless bounded sampling is overkill here;
	// modulo bias at n << 2^64 is far below our statistical tolerances,
	// but reject to keep the sampler exact.
	bound := uint64(n)
	limit := (^uint64(0) / bound) * bound
	for {
		v := r.Uint64()
		if v < limit {
			return int(v % bound)
		}
	}
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Exp returns an exponentially distributed value with the given mean.
// A non-positive mean yields 0, which models a degenerate instantaneous
// delay rather than an error: latency models use mean 0 to switch a
// component off.
func (r *Rand) Exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	u := r.Float64()
	// 1-u is in (0,1]; log of it is finite.
	return -mean * math.Log(1-u)
}

// Gamma samples a Gamma(shape, 1) variate using Marsaglia-Tsang for
// shape >= 1 and the boost transform for shape < 1. It panics for
// non-positive shape.
func (r *Rand) Gamma(shape float64) float64 {
	if shape <= 0 {
		panic("xrand: Gamma called with shape <= 0")
	}
	if shape < 1 {
		// Boost: G(a) = G(a+1) * U^{1/a}.
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		return r.Gamma(shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1.0 / math.Sqrt(9*d)
	for {
		x := r.Normal()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		if u == 0 {
			continue
		}
		if math.Log(u) < 0.5*x*x+d-d*v+d*math.Log(v) {
			return d * v
		}
	}
}

// Normal returns a standard normal variate (polar Marsaglia method).
func (r *Rand) Normal() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}

// Beta samples a Beta(alpha, beta) variate via the Gamma ratio.
// It panics for non-positive parameters.
func (r *Rand) Beta(alpha, beta float64) float64 {
	if alpha <= 0 || beta <= 0 {
		panic("xrand: Beta called with non-positive parameter")
	}
	x := r.Gamma(alpha)
	y := r.Gamma(beta)
	if x == 0 && y == 0 {
		return 0.5
	}
	return x / (x + y)
}

// Categorical returns an index in [0, len(weights)) drawn proportionally to
// weights. Negative weights panic; all-zero weights panic.
func (r *Rand) Categorical(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic("xrand: Categorical called with negative or NaN weight")
		}
		total += w
	}
	if total <= 0 {
		panic("xrand: Categorical called with all-zero weights")
	}
	u := r.Float64() * total
	acc := 0.0
	for i, w := range weights {
		acc += w
		if u < acc {
			return i
		}
	}
	// Floating-point slack: return the last positive-weight index.
	for i := len(weights) - 1; i >= 0; i-- {
		if weights[i] > 0 {
			return i
		}
	}
	return len(weights) - 1
}

// Shuffle permutes the first n integers using Fisher-Yates and calls swap
// for each exchange, mirroring math/rand's contract.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}
