package evo

import (
	"math"
	"math/rand"
	"testing"
)

// rngTestSeeds returns edge seeds plus attempt seeds as Run derives them.
func rngTestSeeds(attempts int) []int64 {
	seeds := []int64{
		0, 1, -1, 2, -2, 89482311, -89482311,
		int32max, -int32max, 2 * int32max, -2 * int32max, 7 * int32max,
		int32max - 1, int32max + 1, 1 << 31, -(1 << 31), 1<<32 + 5,
		math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1,
	}
	for gen := 0; len(seeds) < attempts; gen++ {
		for k := 0; k < 64; k++ {
			seeds = append(seeds, attemptSeed(int64(gen)*7919-3, gen, k))
		}
	}
	return seeds
}

// drawMix draws n values through every rand.Rand path the search uses
// (and Uint64, which bypasses Int63), so both Int63 and Uint64 of the
// source are compared.
func drawMix(r *rand.Rand, n int, out []uint64) []uint64 {
	out = out[:0]
	for i := 0; i < n; i++ {
		switch i % 4 {
		case 0:
			out = append(out, math.Float64bits(r.Float64()))
		case 1:
			out = append(out, uint64(r.Intn(1+i%97)))
		case 2:
			out = append(out, uint64(r.Int63()))
		case 3:
			out = append(out, r.Uint64())
		}
	}
	return out
}

// TestLazySourceMatchesMathRand is the exactness property: for every seed
// the lazily seeded source yields the rand.NewSource stream, well past
// the first two rounds of the 607-word register, and a recycled source
// reseeded after a long stream equals a fresh one.
func TestLazySourceMatchesMathRand(t *testing.T) {
	cases, draws := 320, 1300
	if testing.Short() {
		cases, draws = 64, 1300
	}
	var recycled lazySource
	reused := rand.New(&recycled)
	var want, got, again []uint64
	for _, seed := range rngTestSeeds(cases) {
		want = drawMix(rand.New(rand.NewSource(seed)), draws, want)
		var fresh lazySource
		fresh.Seed(seed)
		got = drawMix(rand.New(&fresh), draws, got)
		reused.Seed(seed)
		again = drawMix(reused, draws, again)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: draw %d = %#x, math/rand %#x", seed, i, got[i], want[i])
			}
			if again[i] != want[i] {
				t.Fatalf("seed %d: reseeded source draw %d = %#x, math/rand %#x", seed, i, again[i], want[i])
			}
		}
	}
}

// TestLazySourceReseedAllocs guards the point of the source: reseeding
// and drawing an attempt's worth of numbers allocates nothing.
func TestLazySourceReseedAllocs(t *testing.T) {
	var src lazySource
	r := rand.New(&src)
	seed := int64(1)
	allocs := testing.AllocsPerRun(200, func() {
		seed++
		r.Seed(attemptSeed(seed, 1, 2))
		for i := 0; i < 16; i++ {
			_ = r.Float64()
		}
	})
	if allocs != 0 {
		t.Errorf("reseed + 16 draws allocated %v times, want 0", allocs)
	}
}
