package evo

import (
	"math/rand"
	"sync"
)

// The constants of math/rand's generator (src/math/rand/rng.go).
const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
	// lcgMul is the multiplier of the seeding recurrence
	// x[n+1] = 48271·x[n] mod (2³¹−1).
	lcgMul = 48271
)

// seedPow[i] = 48271^(21+3i) mod (2³¹−1): the factor taking the seed to
// the first of the three LCG values that build register word i. Seeding
// discards 20 values, then spends 3 per word.
var seedPow = func() (p [rngLen]uint64) {
	x := uint64(1)
	for k := 0; k < 21; k++ {
		x = x * lcgMul % int32max
	}
	for i := range p {
		p[i] = x
		x = x * lcgMul % int32max
		x = x * lcgMul % int32max
		x = x * lcgMul % int32max
	}
	return p
}()

// lazySource is a rand.Source64 that yields exactly the stream of
// rand.NewSource(seed) but seeds in constant time. math/rand's Seed runs
// 1,841 sequential LCG steps to fill a 607-word register, although an
// offspring attempt draws only a few numbers. Here register word i is
// computed on its first read, straight from the seed via seedPow; a
// bitmask marks the words already computed or written, so reseeding only
// clears the mask.
type lazySource struct {
	seed      uint64 // normalized to [1, 2³¹−2], as math/rand does
	tap, feed int
	ready     [(rngLen + 63) / 64]uint64
	vec       [rngLen]int64
}

// Seed resets the source to the start of rand.NewSource(seed)'s stream.
func (r *lazySource) Seed(seed int64) {
	r.tap = 0
	r.feed = rngLen - rngTap
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	r.seed = uint64(seed)
	r.ready = [len(r.ready)]uint64{}
}

// word returns register word i, computing its seeded value on first use.
func (r *lazySource) word(i int) int64 {
	if r.ready[i>>6]&(1<<(i&63)) == 0 {
		x1 := r.seed * seedPow[i] % int32max
		x2 := x1 * lcgMul % int32max
		x3 := x2 * lcgMul % int32max
		r.vec[i] = int64(x1)<<40 ^ int64(x2)<<20 ^ int64(x3) ^ rngCooked[i]
		r.ready[i>>6] |= 1 << (i & 63)
	}
	return r.vec[i]
}

// Uint64 is math/rand's additive lagged Fibonacci step.
func (r *lazySource) Uint64() uint64 {
	r.tap--
	if r.tap < 0 {
		r.tap += rngLen
	}
	r.feed--
	if r.feed < 0 {
		r.feed += rngLen
	}
	x := r.word(r.feed) + r.word(r.tap)
	r.vec[r.feed] = x
	return uint64(x)
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (r *lazySource) Int63() int64 { return int64(r.Uint64() & rngMask) }

// attemptRNG pairs a lazySource with the rand.Rand reading it, so a
// recycled generator needs neither a register nor a Rand allocation.
type attemptRNG struct {
	src lazySource
	*rand.Rand
}

var attemptRNGs = sync.Pool{New: func() any {
	a := new(attemptRNG)
	a.Rand = rand.New(&a.src)
	return a
}}

// takeRNG returns a pooled generator positioned at the start of
// rand.NewSource(seed)'s stream. Return it to attemptRNGs after use.
func takeRNG(seed int64) *attemptRNG {
	a := attemptRNGs.Get().(*attemptRNG)
	a.Seed(seed)
	return a
}
