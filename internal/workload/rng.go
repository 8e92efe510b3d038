// Package workload provides synthetic memory-reference generators standing
// in for the paper's SPEC CPU2000 and Olden benchmarks (see DESIGN.md §5 for
// the substitution rationale). Generators are deterministic: the same seed
// produces the same reference stream bit-for-bit.
//
// Each generator reproduces one access idiom the paper's analysis depends
// on:
//
//   - ArraySweep: regular loop nests over arrays (SPECfp-like), near-perfect
//     temporal correlation of the miss sequence.
//   - PerturbedSweep: repeated traversals whose order mutates between
//     iterations (ammp/apsi/parser-like partial correlation, stale
//     signatures).
//   - PointerChase: dependent traversal of a linked cycle with shuffled
//     layout (mcf/em3d-like: address correlation works, delta correlation
//     does not).
//   - TreeWalk: depth-first traversal of a sequentially allocated tree
//     (treeadd-like: regular heap layout, so delta correlation also works).
//   - HashAccess: uniform pseudo-random references (gzip/bzip2/twolf-like:
//     no temporal correlation).
//   - StreamOnce: single-pass streaming with no reuse (gap-like: regular
//     layout, nothing for an address correlator to learn).
//   - Mix: weighted interleaving of the above, which also exercises
//     LT-cords' ability to follow several signature sequences in parallel.
package workload

// RNG is a SplitMix64 pseudo-random generator: tiny, fast, deterministic,
// and independent of math/rand's evolution across Go releases.
type RNG struct {
	state uint64
}

// NewRNG seeds a generator. Distinct seeds give independent streams.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("workload: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a pseudo-random float in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a pseudo-random permutation of [0, n) (Fisher-Yates).
func (r *RNG) Perm(n int) []int32 {
	p := make([]int32, n)
	for i := range p {
		p[i] = int32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Cycle returns a successor array describing a single random cycle over
// [0, n): following next[i] repeatedly visits every element exactly once
// before returning to the start. The successor construction gives that
// guarantee for any permutation p: next[p[i]] = p[(i+1)%n] links p's
// elements in order, last back to first. The shuffle (Sattolo's
// j < i, where Fisher-Yates would draw j <= i) only fixes which cycle a
// seed yields, so changing it changes every stream built on Cycle.
func (r *RNG) Cycle(n int) []int32 {
	p := make([]int32, n)
	for i := range p {
		p[i] = int32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i) // note: i, not i+1 — Sattolo
		p[i], p[j] = p[j], p[i]
	}
	// Link p's elements in order, the last back to the first.
	next := make([]int32, n)
	for i := 0; i < n; i++ {
		next[p[i]] = p[(i+1)%n]
	}
	return next
}
