// Package xgb implements the learned cost model of §5.2: gradient boosted
// regression trees trained with a weighted squared error on the
// sum-over-statements objective
//
//	loss(f, P, y) = y · (Σ_{s∈S(P)} f(s) − y)²
//
// where S(P) are the innermost statements of program P and y is the
// throughput of P normalized to [0,1] within its DAG. The model predicts a
// score per statement; a program's score is the sum.
//
// The model is safe for concurrent prediction while a training round is
// in flight: Fit builds the new ensemble aside and swaps it in atomically,
// and Score/ScoreStmt/Trained read a snapshot. Split finding shards the
// per-feature scan across a worker pool with a deterministic reduction,
// so trained models are bit-identical for any worker count.
//
// Split search is exact greedy over presorted columns (Chen & Guestrin,
// "XGBoost", KDD'16, §4.1). Each Fit or Boost call lays its rows out
// column-major once and sorts each feature's row order once, by (value,
// row index). Every tree node then scans its contiguous segment of
// those orders and stable-partitions them into its children's, so no
// node sorts. The row-index tie order fixes the order in which equal
// feature values are accumulated, so the float sums, and with them the
// chosen splits, are a pure function of the data. A feature that is
// constant over the call's rows can never split, so it is neither
// sorted nor scanned. When neither child of a split can split again
// (both at MaxDepth, or both too small), only the row segment is
// partitioned: leaves sum their rows and never scan a feature order.
package xgb

import (
	"cmp"
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"

	"repro/internal/pool"
)

// Opts configures training.
type Opts struct {
	NumTrees         int
	MaxDepth         int
	MinSamples       int
	LearningRate     float64
	FeatureSubsample float64
	Seed             int64
	// BoostTrees is how many residual trees one Boost call appends to a
	// trained ensemble (default 10): a warm-started round costs
	// BoostTrees trees over the round's new rows instead of NumTrees
	// trees over all rows.
	BoostTrees int
	// MaxTrees bounds the ensemble growth under repeated Boost calls
	// (default 3*NumTrees): callers fall back to a full Fit once the
	// ensemble would exceed it, keeping prediction cost flat.
	MaxTrees int
	// Workers bounds the goroutines used by the split-finding scan
	// (0 = GOMAXPROCS). Trained models are identical for any value.
	Workers int
}

// DefaultOpts returns the options used throughout the evaluation.
func DefaultOpts() Opts {
	return Opts{
		NumTrees:         30,
		MaxDepth:         6,
		MinSamples:       4,
		LearningRate:     0.3,
		FeatureSubsample: 0.4,
		Seed:             1,
		BoostTrees:       10,
		MaxTrees:         90,
	}
}

type node struct {
	feature   int
	threshold float64
	left      int
	right     int
	value     float64
	leaf      bool
}

type tree struct{ nodes []node }

func (t *tree) predict(x []float64) float64 {
	i := 0
	for {
		n := &t.nodes[i]
		if n.leaf {
			return n.value
		}
		if x[n.feature] <= n.threshold {
			i = n.left
		} else {
			i = n.right
		}
	}
}

// columns is one fit's presorted, column-major view of its training
// rows (Chen & Guestrin, "XGBoost", KDD'16, §4.1). Each feature's values
// are laid out contiguously once, and each feature that varies over the
// rows gets its row order sorted once, by (value, row index). Trees then
// never sort: a node owns the same contiguous segment [lo, hi) of every
// order, scans it in sorted order, and stable-partitions it into its
// children's segments, which therefore stay sorted by (value, row
// index). A node's segment of the identity order holds its rows in
// ascending index order, the order its leaf and parent sums run in.
type columns struct {
	// col[f][i] is feature f of row i. It is nil for a feature that is
	// constant over the rows: such a feature can never split a node, so
	// it is neither sorted nor scanned.
	col [][]float64
	// active lists the varying features in ascending order.
	active []int
	// root holds the root's segments, which span all rows: the identity
	// order and every active feature's presorted order.
	root level
	// part[d%2] holds the segments of the nodes at depth d; each tree
	// starts from a copy of root in part[0]. A node reads its segments
	// from its own depth's level and writes its children's into the
	// next, inside its own [lo, hi) only, so two buffers serve every
	// tree of the fit.
	part [2]level
	// right is 1 for the rows of the node being split that go right,
	// 0 for those that go left.
	right []uint8
}

// level is one depth's node segments: the rows in index order, and
// order[a], the rows in active feature a's (value, row index) order.
type level struct {
	rows  []int32
	order [][]int32
}

// presort lays out x column-major and sorts every varying feature once.
func presort(x [][]float64, pl *pool.Pool) *columns {
	n, nf := len(x), len(x[0])
	c := &columns{col: make([][]float64, nf), right: make([]uint8, n)}
	c.root.rows = make([]int32, n)
	for i := range c.root.rows {
		c.root.rows[i] = int32(i)
	}
	for f := 0; f < nf; f++ {
		for _, r := range x[1:] {
			if r[f] != x[0][f] {
				c.active = append(c.active, f)
				break
			}
		}
	}
	c.root.order = make([][]int32, len(c.active))
	pl.Map(len(c.active), func(a int) {
		f := c.active[a]
		v := make([]float64, n)
		for i, r := range x {
			v[i] = r[f]
		}
		ord := slices.Clone(c.root.rows)
		slices.SortFunc(ord, func(i, j int32) int {
			if d := cmp.Compare(v[i], v[j]); d != 0 {
				return d
			}
			return cmp.Compare(i, j)
		})
		c.col[f], c.root.order[a] = v, ord
	})
	for p := range c.part {
		c.part[p] = level{rows: make([]int32, n), order: make([][]int32, len(c.active))}
		for a := range c.active {
			c.part[p].order[a] = make([]int32, n)
		}
	}
	return c
}

// parallelScanMin is the node size below which the per-feature split scan
// and partition stay serial: tiny nodes would pay more in goroutine
// handoff than the work costs. The threshold depends only on the data,
// never on the worker count, so trees are identical either way.
const parallelScanMin = 512

// split is one feature's best split candidate.
type split struct {
	gain float64
	thr  float64
	ok   bool
}

// grower builds one weighted least-squares regression tree over the
// rows of a presorted fit.
type grower struct {
	*columns
	target, w []float64
	o         Opts
	rng       *rand.Rand
	pl        *pool.Pool
	t         *tree
	// Per-node scratch, reused down the tree: a node consumes both
	// before it recurses.
	mask   []bool
	splits []split
}

// grow greedily builds one tree over all the rows of c.
func (c *columns) grow(target, w []float64, o Opts, rng *rand.Rand, pl *pool.Pool) *tree {
	g := &grower{columns: c, target: target, w: w, o: o, rng: rng, pl: pl, t: &tree{},
		mask: make([]bool, len(c.col)), splits: make([]split, len(c.col))}
	copy(c.part[0].rows, c.root.rows)
	for a, ord := range c.root.order {
		copy(c.part[0].order[a], ord)
	}
	g.build(0, len(c.right), 0)
	return g.t
}

func weightedMean(target, w []float64, idx []int32) float64 {
	var sw, swy float64
	for _, i := range idx {
		sw += w[i]
		swy += w[i] * target[i]
	}
	if sw == 0 {
		return 0
	}
	return swy / sw
}

// each runs fn for every active feature: over the pool for large nodes,
// serially for small ones.
func (g *grower) each(size int, fn func(a int)) {
	if size >= parallelScanMin {
		g.pl.Map(len(g.active), fn)
		return
	}
	for a := range g.active {
		fn(a)
	}
}

// build grows the node at depth that owns segment [lo, hi) of its
// level and returns the node's index in the tree.
func (g *grower) build(lo, hi, depth int) int {
	o, target, w := g.o, g.target, g.w
	self := len(g.t.nodes)
	g.t.nodes = append(g.t.nodes, node{})
	seg := g.part[depth%2]
	idx := seg.rows[lo:hi]
	if depth >= o.MaxDepth || len(idx) < 2*o.MinSamples {
		g.t.nodes[self] = node{leaf: true, value: weightedMean(target, w, idx)}
		return self
	}
	// Parent weighted SSE baseline terms.
	var sw, swy, swyy float64
	for _, i := range idx {
		sw += w[i]
		swy += w[i] * target[i]
		swyy += w[i] * target[i] * target[i]
	}
	if sw == 0 {
		g.t.nodes[self] = node{leaf: true, value: 0}
		return self
	}
	parentSSE := swyy - swy*swy/sw
	// The subsample mask is drawn serially, for every feature, so the RNG
	// stream is identical to a fully serial scan; the scan itself is
	// embarrassingly parallel per feature.
	mask := g.mask
	for f := range mask {
		mask[f] = !(o.FeatureSubsample < 1 && g.rng.Float64() > o.FeatureSubsample)
	}
	splits := g.splits
	clear(splits)
	g.each(len(idx), func(a int) {
		f := g.active[a]
		if !mask[f] {
			return
		}
		order, x := seg.order[a][lo:hi], g.col[f]
		var lw, lwy, lwyy float64
		best := split{}
		for k := 0; k < len(order)-1; k++ {
			i := order[k]
			lw += w[i]
			lwy += w[i] * target[i]
			lwyy += w[i] * target[i] * target[i]
			if x[order[k]] == x[order[k+1]] {
				continue
			}
			if k+1 < o.MinSamples || len(order)-k-1 < o.MinSamples {
				continue
			}
			rw := sw - lw
			if lw <= 0 || rw <= 0 {
				continue
			}
			lsse := lwyy - lwy*lwy/lw
			rwy := swy - lwy
			rwyy := swyy - lwyy
			rsse := rwyy - rwy*rwy/rw
			gain := parentSSE - lsse - rsse
			if gain > best.gain {
				best = split{gain: gain, thr: (x[order[k]] + x[order[k+1]]) / 2, ok: true}
			}
		}
		splits[f] = best
	})
	// Deterministic reduction: strictly-greater gain in ascending feature
	// order reproduces the serial scan's lowest-feature tie-breaking.
	bestGain := 0.0
	bestF, bestThr := -1, 0.0
	for f := range splits {
		if splits[f].ok && splits[f].gain > bestGain {
			bestGain = splits[f].gain
			bestF = f
			bestThr = splits[f].thr
		}
	}
	if bestF < 0 {
		g.t.nodes[self] = node{leaf: true, value: weightedMean(target, w, idx)}
		return self
	}
	x, nl := g.col[bestF], 0
	for _, i := range idx {
		g.right[i] = 1
		if x[i] <= bestThr {
			g.right[i] = 0
			nl++
		}
	}
	next := g.part[(depth+1)%2]
	g.partition(idx, next.rows[lo:hi], nl)
	// Children that are leaves only sum their rows: when neither child
	// can split (both at MaxDepth, or both too small), the feature
	// orders are not partitioned at all.
	if depth+1 < o.MaxDepth && max(nl, len(idx)-nl) >= 2*o.MinSamples {
		g.each(len(idx), func(a int) {
			g.partition(seg.order[a][lo:hi], next.order[a][lo:hi], nl)
		})
	}
	l := g.build(lo, lo+nl, depth+1)
	r := g.build(lo+nl, hi, depth+1)
	g.t.nodes[self] = node{feature: bestF, threshold: bestThr, left: l, right: r}
	return self
}

// partition stably splits the node segment src into dst: its nl rows
// flagged left first, then the rest, each in src order. The loop is
// branch-free, since the side of a row is unpredictable: every row is
// written to both dst's left part and the front of src, which the node
// no longer needs, and only the cursor of its side advances. The right
// rows then move from src's front to dst's tail.
func (g *grower) partition(src, dst []int32, nl int) {
	li, ri := 0, 0
	for _, i := range src {
		r := int(g.right[i])
		dst[li] = i
		src[ri] = i
		li += 1 - r
		ri += r
	}
	copy(dst[nl:], src[:ri])
}

// ensemble is one immutable trained model snapshot: the tree form used
// for training continuation and fingerprinting, plus the flattened
// structure-of-arrays form the prediction hot path walks. Both are built
// aside and swapped in together, so readers always see a matched pair.
type ensemble struct {
	trees []*tree
	flat  *flatEnsemble
}

// CostModel is the per-statement GBDT ensemble with the sum-over-
// statements program score. Prediction is safe for concurrent use, and
// may overlap a Fit call: readers see either the previous or the new
// ensemble, never a partial one.
type CostModel struct {
	Opts Opts

	mu  sync.RWMutex
	ens *ensemble
}

// NewCostModel returns an untrained cost model (scores 0 for everything).
func NewCostModel(o Opts) *CostModel { return &CostModel{Opts: o} }

// snapshot returns the current ensemble for lock-free prediction (nil
// when untrained).
func (c *CostModel) snapshot() *ensemble {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.ens
}

// swap atomically installs a new ensemble, flattening it once for the
// prediction path (nil trees clears the model).
func (c *CostModel) swap(trees []*tree) {
	var e *ensemble
	if len(trees) > 0 {
		e = &ensemble{trees: trees, flat: flatten(trees, c.Opts.LearningRate)}
	}
	c.mu.Lock()
	c.ens = e
	c.mu.Unlock()
}

// treeSnapshot returns the tree form of the current ensemble (nil when
// untrained); Boost continues training from it.
func (c *CostModel) treeSnapshot() []*tree {
	if e := c.snapshot(); e != nil {
		return e.trees
	}
	return nil
}

// Trained reports whether Fit has been called with data.
func (c *CostModel) Trained() bool { return c.snapshot() != nil }

// Fit trains the model from scratch on programs (per-statement feature
// lists) and their normalized throughputs y ∈ [0, 1]. The loss weight of
// each program is its throughput, emphasizing fast programs (§5.2). The
// new ensemble is built aside and swapped in atomically, so concurrent
// Score calls keep working against the previous ensemble.
func (c *CostModel) Fit(progs [][][]float64, y []float64) {
	c.FitWeighted(progs, y, nil)
}

// FitWeighted is Fit with an extra per-program confidence weight
// multiplied into the §5.2 loss weight (nil = all 1, bit-identical to
// Fit). Transfer learning uses it to absorb measurements from sibling
// targets at a discount: a record whose time was calibrated across
// machines should pull the ensemble less hard than one measured
// natively. Weights scale gradients only — tree structure, determinism
// and the atomic swap are unchanged.
func (c *CostModel) FitWeighted(progs [][][]float64, y, progWeight []float64) {
	rng := rand.New(rand.NewSource(c.Opts.Seed))
	c.swap(c.residualTrees(progs, y, progWeight, 0, nil, c.Opts.NumTrees, rng))
}

// Boost is BoostWeighted with unit confidence weights.
func (c *CostModel) Boost(progs [][][]float64, y []float64, newStart int) {
	c.BoostWeighted(progs, y, nil, newStart)
}

// BoostWeighted warm-starts training from the current ensemble instead
// of refitting from scratch: the existing trees are kept verbatim and
// Opts.BoostTrees new residual trees are fitted on the programs from
// newStart onward (the rows added since the last fit), against the
// residual of the current ensemble's prediction. progs and y cover ALL
// accumulated programs — labels are normalized over the full set by the
// caller — but only the new slice is scanned, so one warm round costs
// O(new rows) instead of O(all rows).
//
// Boosting is only a faithful continuation while the old labels are
// unchanged: if the per-DAG normalization shifted (a new best program
// rescales every y), the caller must fall back to a full Fit — see
// policy's fingerprint-drift checkpoints. Determinism matches Fit: the
// residual-tree RNG is derived from (Seed, current ensemble size), so
// any run issuing the same Fit/Boost call sequence over the same data
// reproduces the exact same ensemble at any worker count.
func (c *CostModel) BoostWeighted(progs [][][]float64, y, progWeight []float64, newStart int) {
	prev := c.snapshot()
	if prev == nil || newStart <= 0 {
		c.FitWeighted(progs, y, progWeight)
		return
	}
	if newStart >= len(progs) {
		return // nothing new: the current ensemble is already the fit
	}
	boostTrees := c.Opts.BoostTrees
	if boostTrees <= 0 {
		boostTrees = 10
	}
	// Decorrelate the residual trees' feature subsample from the full
	// fit's: the stream is a pure function of (Seed, ensemble size), so
	// identical call sequences reproduce identical models.
	rng := rand.New(rand.NewSource(c.Opts.Seed ^ int64(uint64(len(prev.trees)+1)*0x9e3779b97f4a7c15)))
	if trees := c.residualTrees(progs, y, progWeight, newStart, prev.flat, boostTrees, rng); trees != nil {
		c.swap(slices.Concat(prev.trees, trees))
	}
}

// newTreeBuilder prepares the tree builder of one fit over its rows.
// It is a variable only so the tests can swap in a per-node-sort
// reference and pin the presorted builder bit for bit to it.
var newTreeBuilder = func(x [][]float64, pl *pool.Pool) treeBuilder { return presort(x, pl) }

// treeBuilder grows the trees of one fit: every tree covers all of the
// fit's rows, with per-tree targets and weights.
type treeBuilder interface {
	grow(target, w []float64, o Opts, rng *rand.Rand, pl *pool.Pool) *tree
}

// residualTrees runs rounds steps of the boosting recurrence over the
// statements of progs[from:] and returns the new trees (nil when those
// programs have no statements). Each tree fits the residual of base
// (nil = predict 0) plus the trees before it under the sum-over-
// statements loss; labels and weights are indexed over all of progs.
func (c *CostModel) residualTrees(progs [][][]float64, y, progWeight []float64, from int, base *flatEnsemble, rounds int, rng *rand.Rand) []*tree {
	var rows [][]float64
	var rowProg []int // program of each row
	nStmts := make([]float64, len(progs))
	for p := from; p < len(progs); p++ {
		nStmts[p] = float64(len(progs[p]))
		for _, s := range progs[p] {
			rows = append(rows, s)
			rowProg = append(rowProg, p)
		}
	}
	if len(rows) == 0 {
		return nil
	}
	pl := pool.New(c.Opts.Workers)
	// Seed the per-row predictions with the base ensemble (via the
	// flattened slab — same per-tree accumulation order as the pointer
	// walk).
	pred := make([]float64, len(rows))
	if base != nil {
		pl.Map(len(rows), func(i int) {
			pred[i] = base.scoreStmt(rows[i])
		})
	}
	target := make([]float64, len(rows))
	weight := make([]float64, len(rows))
	progPred := make([]float64, len(progs))
	builder := newTreeBuilder(rows, pl)
	const minWeight = 0.05
	trees := make([]*tree, 0, rounds)
	for round := 0; round < rounds; round++ {
		clear(progPred)
		for i, p := range rowProg {
			progPred[p] += pred[i]
		}
		for i, p := range rowProg {
			r := y[p] - progPred[p]
			target[i] = r / nStmts[p]
			weight[i] = math.Max(y[p], minWeight)
			if progWeight != nil {
				weight[i] *= progWeight[p]
			}
		}
		t := builder.grow(target, weight, c.Opts, rng, pl)
		for i := range rows {
			pred[i] += c.Opts.LearningRate * t.predict(rows[i])
		}
		trees = append(trees, t)
	}
	return trees
}

// NumTrees returns the current ensemble size (0 when untrained). Policy
// uses it to bound Boost growth against Opts.MaxTrees.
func (c *CostModel) NumTrees() int { return len(c.treeSnapshot()) }

// Score returns the model's predicted fitness (higher = faster) for a
// program given its per-statement features. It walks the flattened slab
// ensemble; per statement the accumulation order over trees is identical
// to the pointer-tree path, so scores are bit-for-bit equal (see
// flat.go).
func (c *CostModel) Score(stmts [][]float64) float64 {
	e := c.snapshot()
	if e == nil {
		return 0
	}
	var s float64
	for _, st := range stmts {
		s = e.flat.addStmt(s, st)
	}
	return s
}

// scoreTrees is the reference pointer-tree score path, kept for the
// flat-vs-tree equivalence property test and the old-vs-new benchmark.
func (c *CostModel) scoreTrees(stmts [][]float64) float64 {
	trees := c.treeSnapshot()
	var s float64
	for _, st := range stmts {
		for _, t := range trees {
			s += c.Opts.LearningRate * t.predict(st)
		}
	}
	return s
}

// Fingerprint returns an FNV-1a hash over the complete ensemble
// structure (tree shapes, split features/thresholds, leaf values). Two
// models score every input identically iff their fingerprints match, so
// the persistence layer's determinism checks can assert that a resumed
// search retrained to the exact model of an uninterrupted run. The
// untrained model hashes to a fixed value.
func (c *CostModel) Fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		_, _ = h.Write(buf[:])
	}
	trees := c.treeSnapshot()
	w64(uint64(len(trees)))
	for _, t := range trees {
		w64(uint64(len(t.nodes)))
		for _, n := range t.nodes {
			if n.leaf {
				w64(^uint64(0))
				w64(math.Float64bits(n.value))
				continue
			}
			w64(uint64(n.feature))
			w64(math.Float64bits(n.threshold))
			w64(uint64(n.left))
			w64(uint64(n.right))
		}
	}
	return h.Sum64()
}

// ScoreStmt returns the per-statement score (used by node-based crossover
// to pick the better parent per node, §5.1).
func (c *CostModel) ScoreStmt(stmt []float64) float64 {
	e := c.snapshot()
	if e == nil {
		return 0
	}
	return e.flat.scoreStmt(stmt)
}

// ---- Ranking metrics (Figure 3) ----

// PairwiseAccuracy returns the fraction of program pairs whose predicted
// order matches the ground-truth order. Random predictions score 0.5.
func PairwiseAccuracy(pred, truth []float64) float64 {
	n := len(pred)
	if n < 2 {
		return 1
	}
	var correct, total float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if truth[i] == truth[j] {
				continue
			}
			total++
			if pred[i] == pred[j] {
				correct += 0.5
			} else if (pred[i] > pred[j]) == (truth[i] > truth[j]) {
				correct++
			}
		}
	}
	if total == 0 {
		return 1
	}
	return correct / total
}

// RecallAtK returns |G ∩ P| / k where G is the ground-truth top-k set and
// P the predicted top-k set (the recall@k of top-k from §2).
func RecallAtK(pred, truth []float64, k int) float64 {
	n := len(pred)
	if k > n {
		k = n
	}
	if k == 0 {
		return 0
	}
	top := func(v []float64) map[int]bool {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return v[idx[a]] > v[idx[b]] })
		out := map[int]bool{}
		for _, i := range idx[:k] {
			out[i] = true
		}
		return out
	}
	g, p := top(truth), top(pred)
	inter := 0
	for i := range g {
		if p[i] {
			inter++
		}
	}
	return float64(inter) / float64(k)
}
