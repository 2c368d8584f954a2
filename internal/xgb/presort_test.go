package xgb

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/pool"
)

// sortedTreeBuilder is the reference the presorted builder is pinned
// to: every node re-sorts its rows by (value, row index) for every
// feature, constant ones included, and partitions its rows by appending
// them in index order.
type sortedTreeBuilder struct{ x [][]float64 }

func (r sortedTreeBuilder) grow(target, w []float64, o Opts, rng *rand.Rand, _ *pool.Pool) *tree {
	idx := make([]int32, len(r.x))
	for i := range idx {
		idx[i] = int32(i)
	}
	t := &tree{}
	r.build(t, target, w, idx, 0, o, rng)
	return t
}

func (r sortedTreeBuilder) build(t *tree, target, w []float64, idx []int32, depth int, o Opts, rng *rand.Rand) int {
	self := len(t.nodes)
	t.nodes = append(t.nodes, node{leaf: true, value: weightedMean(target, w, idx)})
	if depth >= o.MaxDepth || len(idx) < 2*o.MinSamples {
		return self
	}
	var sw, swy, swyy float64
	for _, i := range idx {
		sw += w[i]
		swy += w[i] * target[i]
		swyy += w[i] * target[i] * target[i]
	}
	if sw == 0 {
		return self
	}
	nf := len(r.x[0])
	mask := make([]bool, nf)
	for f := range mask {
		mask[f] = !(o.FeatureSubsample < 1 && rng.Float64() > o.FeatureSubsample)
	}
	best := split{}
	bestF := -1
	for f := 0; f < nf; f++ {
		if !mask[f] {
			continue
		}
		x := func(k int) float64 { return r.x[k][f] }
		order := slices.Clone(idx)
		slices.SortFunc(order, func(a, b int32) int { return cmp.Or(cmp.Compare(x(int(a)), x(int(b))), cmp.Compare(a, b)) })
		var lw, lwy, lwyy float64
		for k := 0; k < len(order)-1; k++ {
			i := order[k]
			lw += w[i]
			lwy += w[i] * target[i]
			lwyy += w[i] * target[i] * target[i]
			lo, hi := x(int(order[k])), x(int(order[k+1]))
			if lo == hi || k+1 < o.MinSamples || len(order)-k-1 < o.MinSamples || lw <= 0 || sw-lw <= 0 {
				continue
			}
			rw, rwy, rwyy := sw-lw, swy-lwy, swyy-lwyy
			gain := swyy - swy*swy/sw - (lwyy - lwy*lwy/lw) - (rwyy - rwy*rwy/rw)
			if gain > best.gain {
				best, bestF = split{gain: gain, thr: (lo + hi) / 2, ok: true}, f
			}
		}
	}
	if bestF < 0 {
		return self
	}
	var li, ri []int32
	for _, i := range idx {
		if r.x[i][bestF] <= best.thr {
			li = append(li, i)
		} else {
			ri = append(ri, i)
		}
	}
	l := r.build(t, target, w, li, depth+1, o, rng)
	rt := r.build(t, target, w, ri, depth+1, o, rng)
	t.nodes[self] = node{feature: bestF, threshold: best.thr, left: l, right: rt}
	return self
}

// tieHeavyTraining builds programs shaped like real feature rows:
// quantized, sparse features (2, 4 or 1000 levels, about half zeros),
// some constant and some exact copies of their neighbour, 1–6
// statements per program, and random program weights.
func tieHeavyTraining(rng *rand.Rand, nProg, dim int) (progs [][][]float64, y, weight []float64) {
	levels := make([]int, dim)
	for f := range levels {
		levels[f] = []int{0, 2, 4, 1000, 2, 4, 1000, -1}[rng.Intn(8)] // 0 = constant, -1 = copy
	}
	for p := 0; p < nProg; p++ {
		stmts := make([][]float64, 1+rng.Intn(6))
		for s := range stmts {
			v := make([]float64, dim)
			for f, l := range levels {
				switch {
				case l < 0 && f > 0:
					v[f] = v[f-1]
				case l > 0 && rng.Intn(2) == 0:
					v[f] = float64(1+rng.Intn(l)) / 4
				}
			}
			stmts[s] = v
		}
		progs = append(progs, stmts)
		y = append(y, float64(rng.Intn(20))/19)
		weight = append(weight, 0.25+0.75*rng.Float64())
	}
	return progs, y, weight
}

// TestPresortedMatchesPerNodeSort pins the presorted builder bit for
// bit to the per-node-sort reference on tie-heavy data, through a full
// fit followed by a boost, at every worker count.
func TestPresortedMatchesPerNodeSort(t *testing.T) {
	cases := 60
	if testing.Short() {
		cases = 8
	}
	shipped := newTreeBuilder
	t.Cleanup(func() { newTreeBuilder = shipped })
	rng := rand.New(rand.NewSource(12))
	for c := 0; c < cases; c++ {
		dim := []int{5, 40, 153}[c%3]
		nProg := 40 + rng.Intn(160)
		if c%2 == 1 {
			nProg += 200 // large enough for the parallel scan and partition
		}
		progs, y, weight := tieHeavyTraining(rng, nProg, dim)
		cut := len(progs) * 3 / 4
		train := func(workers int) (fit, boost uint64) {
			o := DefaultOpts()
			o.NumTrees, o.BoostTrees, o.Workers = 8, 4, workers
			m := NewCostModel(o)
			m.FitWeighted(progs[:cut], y[:cut], weight[:cut])
			fit = m.Fingerprint()
			m.BoostWeighted(progs, y, weight, cut)
			return fit, m.Fingerprint()
		}
		newTreeBuilder = func(x [][]float64, _ *pool.Pool) treeBuilder { return sortedTreeBuilder{x} }
		wantFit, wantBoost := train(1)
		newTreeBuilder = shipped
		for workers := 1; workers <= 4; workers++ {
			t.Run(fmt.Sprintf("case=%d/dim=%d/workers=%d", c, dim, workers), func(t *testing.T) {
				fit, boost := train(workers)
				if fit != wantFit {
					t.Errorf("FitWeighted fingerprint %#x, per-node sort reference %#x", fit, wantFit)
				}
				if boost != wantBoost {
					t.Errorf("BoostWeighted fingerprint %#x, per-node sort reference %#x", boost, wantBoost)
				}
			})
		}
	}
}
