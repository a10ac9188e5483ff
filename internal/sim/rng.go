package sim

import "math/rand"

// RNG is a deterministic random source for simulation components. It wraps
// math/rand.Rand with an explicit seed so every run is reproducible; no
// simulation code may use the global rand functions.
type RNG struct {
	r *rand.Rand
}

// NewRNG creates a deterministic generator from the given seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Fork derives an independent deterministic stream, keyed by id, so that
// components consume random numbers without perturbing each other.
func (g *RNG) Fork(id int64) *RNG {
	const golden = int64(0x9E3779B97F4A7C15 >> 1)
	return NewRNG(g.r.Int63() ^ (id * golden))
}

// Intn returns a uniform int in [0, n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63 returns a uniform non-negative int64.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// Uint64 returns a uniform uint64.
func (g *RNG) Uint64() uint64 { return g.r.Uint64() }

// Float64 returns a uniform float64 in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// ExpFloat64 returns an exponentially distributed float64 with mean 1.
func (g *RNG) ExpFloat64() float64 { return g.r.ExpFloat64() }

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Shuffle randomizes the order of n elements using swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }

// Bytes fills b with random bytes.
func (g *RNG) Bytes(b []byte) {
	g.r.Read(b) //nolint:errcheck // rand.Read never fails
}
