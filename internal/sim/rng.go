package sim

import "math"

// RNG is a deterministic xorshift64* pseudo-random generator. The
// simulator is fully deterministic given a seed, which is what makes the
// E6 experiments reproducible without math/rand's global state.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed (0 is remapped to a fixed
// non-zero constant; xorshift has a zero fixpoint).
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x853C49E6748FEA9B
	}
	return &RNG{state: seed}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state ^= r.state >> 12
	r.state ^= r.state << 25
	r.state ^= r.state >> 27
	return r.state * 0x2545F4914F6CDD1D
}

// Intn returns a pseudo-random int in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive bound")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// ExpTicks returns an exponentially distributed duration with the given
// mean, rounded up to at least 1 tick — the inter-arrival law of the
// open-loop database workload.
func (r *RNG) ExpTicks(mean float64) int64 {
	// Inverse-CDF sampling.
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	d := int64(-mean * math.Log(u))
	if d < 1 {
		d = 1
	}
	return d
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int { return r.permInto(make([]int, n)) }

// permInto overwrites out with a pseudo-random permutation of
// [0, len(out)) — Perm's draws, in a buffer the caller keeps.
func (r *RNG) permInto(out []int) []int {
	for i := range out {
		j := r.Intn(i + 1)
		out[i] = out[j]
		out[j] = i
	}
	return out
}
