// Package rng provides a deterministic, splittable pseudo-random number
// generator used for reproducible initial conditions, workload jitter and
// fault injection.
//
// The generator is xoshiro256** seeded through SplitMix64, the combination
// recommended by the xoshiro authors. Unlike math/rand's global state it is
// safe to create one generator per goroutine (ranks, workers) from a root
// seed so that simulations are bitwise reproducible regardless of
// parallelism.
package rng

import "math"

// Rand is a xoshiro256** generator. The zero value is not valid; use New.
type Rand struct {
	s [4]uint64
}

// New creates a generator from a 64-bit seed. Distinct seeds yield
// independent streams.
func New(seed uint64) *Rand {
	r := &Rand{}
	sm := seed
	for i := range r.s {
		sm = splitmix64(&sm)
		r.s[i] = sm
	}
	// xoshiro must not start from the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9E3779B97F4A7C15
	}
	return r
}

func splitmix64(state *uint64) uint64 {
	*state += 0x9E3779B97F4A7C15
	z := *state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 pseudo-random bits.
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

// Split derives an independent child generator. The parent advances by one
// draw; the child is seeded from that draw, so repeated Split calls produce
// distinct streams.
func (r *Rand) Split() *Rand { return New(r.Uint64()) }

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) * 0x1p-53
}

// Norm returns a standard normal deviate using the Box–Muller transform.
func (r *Rand) Norm() float64 {
	// Avoid log(0) by nudging u1 away from zero.
	u1 := r.Float64()
	if u1 < 1e-300 {
		u1 = 1e-300
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}
