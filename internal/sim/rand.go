package sim

// Rand is a small, fast, deterministic pseudo-random number generator
// (splitmix64 followed by xorshift mixing) used everywhere the reproduction
// needs randomness.  Using our own generator keeps runs reproducible across
// Go releases and avoids any dependency on global math/rand state.  It is not
// safe for concurrent use; every actor owns its generator.
type Rand struct {
	state uint64
}

// NewRand returns a generator seeded with seed.  Two generators with the same
// seed produce identical sequences.
func NewRand(seed uint64) *Rand {
	r := &Rand{state: seed}
	// Warm up so that small seeds do not produce correlated first outputs.
	r.Uint64()
	r.Uint64()
	return r
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *Rand) Uint64() uint64 {
	// splitmix64
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a pseudo-random int in [0, n).  It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// IntRange returns a pseudo-random int in [lo, hi] inclusive.  It panics if
// hi < lo.
func (r *Rand) IntRange(lo, hi int) int {
	if hi < lo {
		panic("sim: IntRange with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle pseudo-randomly permutes n elements using the provided swap
// function.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
