// Package util provides small shared helpers: a deterministic RNG,
// numeric utilities, and a parallel-for primitive used across the
// Javelin packages. Everything here is dependency-free and allocation
// conscious; hot paths avoid interface boxing.
package util

// RNG is a deterministic splitmix64 pseudo-random generator.
//
// We do not use math/rand so that matrix generators produce identical
// streams across Go versions and platforms; experiment tables must be
// reproducible bit-for-bit.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Distinct seeds give
// well-decorrelated streams (splitmix64 is the seeding function
// recommended for xoshiro-family generators).
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Uint64 returns the next pseudo-random 64-bit value.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Intn returns a pseudo-random int in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("util: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns an approximately standard-normal variate using
// the sum of 12 uniforms (Irwin–Hall); adequate for generating matrix
// values, and keeps the generator dependency-free and portable.
func (r *RNG) NormFloat64() float64 {
	s := 0.0
	for i := 0; i < 12; i++ {
		s += r.Float64()
	}
	return s - 6.0
}

// Perm returns a pseudo-random permutation of [0, n) via Fisher–Yates.
func (r *RNG) Perm(n int) []int {
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
