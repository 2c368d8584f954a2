// Package evo implements Ansor's evolutionary fine-tuning (§5.1):
// fitness-proportional selection over a population of complete programs,
// with mutation operators that rewrite the programs' rewriting steps (the
// "genes") — tile-size mutation, parallel/vectorization granularity
// mutation, annotation mutation, compute-location mutation — and a
// node-based crossover that merges the per-node steps of two parents.
// Every offspring is verified by replaying its step list; invalid
// offspring are discarded. An operator that leaves the steps unchanged (a
// value rewritten to itself, a crossover taking nothing from the second
// parent) yields the parent itself: it was replayed already, and a replay
// of the same steps would rebuild the same program.
//
// Scoring and offspring generation are sharded across a worker pool.
// Determinism is independent of the worker count: every offspring attempt
// owns a private RNG derived from (Seed, generation, attempt index), so
// no goroutine ever reads a shared random stream (see DESIGN.md). The
// attempt RNG is a lazily seeded source that yields exactly the
// rand.NewSource stream for its seed, without paying math/rand's
// 607-word seeding for an attempt that draws only a few numbers.
package evo

import (
	"math/rand"
	"sort"
	"sync"

	"repro/internal/anno"
	"repro/internal/ir"
	"repro/internal/pool"
	"repro/internal/te"
)

// Config controls the evolutionary search.
type Config struct {
	PopulationSize int
	Generations    int
	// CrossoverProb is the probability of producing an offspring by
	// crossover rather than mutation.
	CrossoverProb float64
	// EliteCount survivors copied unchanged each generation.
	EliteCount int
	Seed       int64
	// Workers bounds the goroutines used for scoring and offspring
	// generation (0 = GOMAXPROCS). Results are bit-identical for any
	// value.
	Workers int
}

// DefaultConfig returns the configuration used in the evaluation.
func DefaultConfig() Config {
	return Config{
		PopulationSize: 128,
		Generations:    4,
		CrossoverProb:  0.15,
		EliteCount:     16,
		Seed:           1,
	}
}

// Scorer predicts the fitness of programs (higher = better). It also
// exposes per-node scores for crossover donor selection.
//
// Implementations must be safe for concurrent calls: the search shards
// Score over disjoint sub-slices and calls NodeScores from offspring
// workers in parallel.
type Scorer interface {
	// Score returns a fitness per state.
	Score(states []*ir.State) []float64
	// NodeScores returns per-node-tag scores of one state (may be nil if
	// unavailable; crossover then picks donors at random).
	NodeScores(s *ir.State) map[string]float64
}

// IntoScorer is an optional Scorer extension for the zero-alloc score
// path: ScoreInto writes the score of states[i] to dst[i] (len(dst) ==
// len(states)) instead of allocating a result slice per call. ScoreAll
// shards thousands of small chunks per round; with ScoreInto each chunk
// writes straight into the caller's result buffer. Scores must be
// identical to Score's.
type IntoScorer interface {
	Scorer
	ScoreInto(dst []float64, states []*ir.State)
}

// Search runs evolutionary fine-tuning.
type Search struct {
	Cfg  Config
	pool *pool.Pool
}

// NewSearch returns a seeded evolutionary search.
func NewSearch(cfg Config) *Search {
	return &Search{Cfg: cfg, pool: pool.New(cfg.Workers)}
}

// attemptSeed derives the private RNG seed of one offspring attempt from
// the search seed, the generation, and the attempt ordinal. SplitMix64
// finalization decorrelates neighbouring attempts.
func attemptSeed(seed int64, gen, attempt int) int64 {
	z := uint64(seed) ^ 0x9e3779b97f4a7c15*(uint64(gen)*1000003+uint64(attempt)+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// Run evolves the initial population for the configured generations and
// returns the `out` highest-scoring distinct programs seen.
func (e *Search) Run(dag *te.DAG, init []*ir.State, scorer Scorer, out int) []*ir.State {
	if len(init) == 0 {
		return nil
	}
	pop := append([]*ir.State(nil), init...)
	type scored struct {
		s     *ir.State
		sig   string
		score float64
	}
	best := map[string]scored{}
	// record keys the best-map off the memoized signature: elites and
	// re-derived twins survive across generations, so this reads the
	// cached string rather than rebuilding it per generation.
	record := func(states []*ir.State, scores []float64) {
		for i, s := range states {
			sig := s.Signature()
			if b, ok := best[sig]; !ok || scores[i] > b.score {
				best[sig] = scored{s, sig, scores[i]}
			}
		}
	}
	scores := e.scoreAll(scorer, pop)
	record(pop, scores)
	for gen := 0; gen < e.Cfg.Generations; gen++ {
		next := e.elites(pop, scores)
		sel := newRoulette(scores)
		// Offspring attempts run in waves. A wave's size depends only on
		// how many children are still missing — never on the worker count
		// — and each attempt's outcome is a pure function of its seed and
		// the (frozen) parent population, so valid children arrive in a
		// deterministic order regardless of scheduling.
		maxAttempts := 20 * e.Cfg.PopulationSize
		attempt := 0
		for len(next) < e.Cfg.PopulationSize && attempt < maxAttempts {
			// First wave: exactly the missing count (most attempts are
			// valid, so surplus offspring would just be discarded).
			// Top-up waves double the missing count to converge fast when
			// this sketch's validity rate proves low. The partition never
			// changes the result: children are taken in attempt order, and
			// attempt k's outcome is independent of wave boundaries.
			wave := e.Cfg.PopulationSize - len(next)
			if attempt > 0 {
				wave *= 2
			}
			if wave > maxAttempts-attempt {
				wave = maxAttempts - attempt
			}
			children := make([]*ir.State, wave)
			base := attempt
			e.pool.Map(wave, func(k int) {
				rng := takeRNG(attemptSeed(e.Cfg.Seed, gen, base+k))
				children[k] = e.offspring(dag, pop, sel, scorer, rng.Rand)
				attemptRNGs.Put(rng)
			})
			attempt += wave
			for _, c := range children {
				if c != nil && len(next) < e.Cfg.PopulationSize {
					next = append(next, c)
				}
			}
		}
		if len(next) == 0 {
			break
		}
		pop = next
		scores = e.scoreAll(scorer, pop)
		record(pop, scores)
	}
	// Return the top `out` distinct programs. Equal scores tie-break on
	// the program signature: map iteration order must never leak into the
	// result (the determinism contract of DESIGN.md).
	all := make([]scored, 0, len(best))
	for _, b := range best {
		all = append(all, b)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].score != all[j].score {
			return all[i].score > all[j].score
		}
		return all[i].sig < all[j].sig
	})
	// Family-diverse cut: the exact signature distinguishes near-twin
	// variants of one loop structure (packed vs. unpacked constant
	// layout) that score adjacently, so taking the top `out` verbatim
	// would crowd the result with twins and starve distinct structures.
	// Keep the best scorer of each structural family first, then fill
	// with the twins — both in the deterministic sorted order, so the
	// result is still a pure function of the inputs.
	seenFam := map[string]bool{}
	lead := make([]scored, 0, len(all))
	var twins []scored
	for _, b := range all {
		fam := b.s.FamilySignature()
		if seenFam[fam] {
			twins = append(twins, b)
			continue
		}
		seenFam[fam] = true
		lead = append(lead, b)
	}
	all = append(lead, twins...)
	if out > len(all) {
		out = len(all)
	}
	res := make([]*ir.State, out)
	for i := 0; i < out; i++ {
		res[i] = all[i].s
	}
	return res
}

// offspring produces one child (or nil) from its private RNG.
func (e *Search) offspring(dag *te.DAG, pop []*ir.State, sel *roulette, scorer Scorer, rng *rand.Rand) *ir.State {
	if rng.Float64() < e.Cfg.CrossoverProb && len(pop) >= 2 {
		a, b := pop[sel.pick(rng)], pop[sel.pick(rng)]
		return e.crossover(dag, a, b, scorer, rng)
	}
	return e.mutate(dag, pop[sel.pick(rng)], rng)
}

// scoreChunk is the fixed shard size of ScoreAll. It depends only on the
// data, never on the worker count, so scores are identical either way.
const scoreChunk = 8

// ScoreAll shards scorer.Score over the pool in contiguous chunks with
// order-stable results; scorer must tolerate concurrent calls on
// disjoint sub-slices. It is shared by the evolutionary search and the
// policy's batch selection.
func ScoreAll(pl *pool.Pool, scorer Scorer, states []*ir.State) []float64 {
	out := make([]float64, len(states))
	ScoreAllInto(pl, scorer, states, out)
	return out
}

// ScoreAllInto is ScoreAll writing into the caller's buffer (len(out)
// == len(states)). Scorers implementing IntoScorer fill their chunk of
// the buffer directly; others pay one slice allocation per chunk.
func ScoreAllInto(pl *pool.Pool, scorer Scorer, states []*ir.State, out []float64) {
	into, zeroAlloc := scorer.(IntoScorer)
	chunks := (len(states) + scoreChunk - 1) / scoreChunk
	pl.Map(chunks, func(c int) {
		lo := c * scoreChunk
		hi := lo + scoreChunk
		if hi > len(states) {
			hi = len(states)
		}
		if zeroAlloc {
			into.ScoreInto(out[lo:hi], states[lo:hi])
			return
		}
		copy(out[lo:hi], scorer.Score(states[lo:hi]))
	})
}

// scoreAll scores one population with within-wave dedupe: twin
// offspring (equal signatures — mutation and crossover keep re-deriving
// the same program from different parents, and elites survive rounds
// verbatim) are scored once and share the result. Scores are pure
// functions of the program under a frozen model, so sharing cannot
// change any value — only skip redundant ensemble walks. Grouping keys
// off the memoized signature and first occurrence wins, so the unique
// set and the expanded result are pure functions of the population
// order.
func (e *Search) scoreAll(scorer Scorer, pop []*ir.State) []float64 {
	scores := make([]float64, len(pop))
	ref := make([]int, len(pop))
	uniq := make([]*ir.State, 0, len(pop))
	first := make(map[string]int, len(pop))
	for i, s := range pop {
		sig := s.Signature()
		j, dup := first[sig]
		if !dup {
			j = len(uniq)
			first[sig] = j
			uniq = append(uniq, s)
		}
		ref[i] = j
	}
	uscores := scores[:len(uniq)]
	if len(uniq) < len(pop) {
		uscores = make([]float64, len(uniq))
	}
	ScoreAllInto(e.pool, scorer, uniq, uscores)
	if len(uniq) < len(pop) {
		for i, j := range ref {
			scores[i] = uscores[j]
		}
	}
	return scores
}

// elites returns the top EliteCount programs of the current population.
func (e *Search) elites(pop []*ir.State, scores []float64) []*ir.State {
	idx := make([]int, len(pop))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
	n := e.Cfg.EliteCount
	if n > len(pop) {
		n = len(pop)
	}
	out := make([]*ir.State, n)
	for i := 0; i < n; i++ {
		out[i] = pop[idx[i]]
	}
	return out
}

// roulette implements fitness-proportional selection with a shift making
// all weights positive. It is immutable after construction; callers pass
// their own RNG to pick, so concurrent picks stay independent.
type roulette struct {
	cum []float64
}

func newRoulette(scores []float64) *roulette {
	min := 0.0
	for _, s := range scores {
		if s < min {
			min = s
		}
	}
	cum := make([]float64, len(scores))
	total := 0.0
	for i, s := range scores {
		total += s - min + 1e-6
		cum[i] = total
	}
	return &roulette{cum: cum}
}

func (r *roulette) pick(rng *rand.Rand) int {
	if len(r.cum) == 0 {
		return 0
	}
	x := rng.Float64() * r.cum[len(r.cum)-1]
	return sort.SearchFloat64s(r.cum, x)
}

// mutate applies one randomly chosen evolution operation to a copy of the
// parent's steps and replays; nil on invalid offspring. Each operator
// reports whether it applied at all (ok) and whether it changed a value;
// an unchanged copy is the parent itself and skips the replay.
func (e *Search) mutate(dag *te.DAG, parent *ir.State, rng *rand.Rand) *ir.State {
	holder := takeSteps()
	steps := cloneStepsInto((*holder)[:0], parent.Steps)
	ok, changed := false, false
	switch rng.Intn(5) {
	case 0:
		ok, changed = mutateTileSize(steps, rng)
	case 1:
		ok, changed = mutateAnnotation(steps, rng)
	case 2:
		ok, changed = mutateParallelGranularity(steps, rng)
	case 3:
		ok, changed = mutateComputeLocation(steps, rng)
	case 4:
		ok, changed = mutatePragma(steps, rng)
	}
	if !ok {
		putSteps(holder, steps)
		return nil
	}
	if !changed {
		putSteps(holder, steps)
		return unchanged(parent)
	}
	s, err := ir.Replay(dag, steps)
	putSteps(holder, steps)
	if err != nil || !s.Complete() || s.Validate() != nil {
		return nil
	}
	return s
}

// unchanged is the child of an operator that left the parent's steps as
// they were. Replaying those steps would rebuild the parent's program, so
// the parent is the child, subject to the offspring validity check:
// initial states join the population without having passed it.
func unchanged(parent *ir.State) *ir.State {
	if !parent.Complete() || parent.Validate() != nil {
		return nil
	}
	return parent
}

// stepsScratch recycles the step-list buffers that offspring attempts
// clone parents into. Replay copies the steps into the new state's own
// history slice, so the scratch buffer itself is never retained — most
// attempts are discarded as invalid anyway, and without recycling every
// attempt pays a fresh slice allocation.
var stepsScratch = sync.Pool{New: func() any { return new([]ir.Step) }}

func takeSteps() *[]ir.Step { return stepsScratch.Get().(*[]ir.Step) }

// putSteps clears the scratch entries (so recycled buffers don't pin
// discarded step objects) and returns the buffer to the pool.
func putSteps(holder *[]ir.Step, steps []ir.Step) {
	clear(steps)
	*holder = steps[:0]
	stepsScratch.Put(holder)
}

// cloneStepsInto deep-clones steps, appending to dst.
func cloneStepsInto(dst []ir.Step, steps []ir.Step) []ir.Step {
	for _, s := range steps {
		dst = append(dst, s.Clone())
	}
	return dst
}

// mutateTileSize implements the paper's tile size mutation: divide one
// tile level by a factor and multiply another level of the same axis by
// the same factor, keeping the product equal to the loop length.
func mutateTileSize(steps []ir.Step, rng *rand.Rand) (ok, changed bool) {
	var tiles []*ir.MultiLevelTileStep
	var rfs []*ir.RFactorStep
	for _, s := range steps {
		switch t := s.(type) {
		case *ir.MultiLevelTileStep:
			if t.SpaceFactors != nil {
				tiles = append(tiles, t)
			}
		case *ir.RFactorStep:
			rfs = append(rfs, t)
		}
	}
	if len(tiles) == 0 && len(rfs) == 0 {
		return false, false
	}
	if len(rfs) > 0 && (len(tiles) == 0 || rng.Float64() < 0.2) {
		// Mutate an rfactor split factor.
		rf := rfs[rng.Intn(len(rfs))]
		old := rf.Factor
		if rng.Intn(2) == 0 {
			rf.Factor *= 2
		} else if rf.Factor%2 == 0 {
			rf.Factor /= 2
		}
		return rf.Factor >= 2, rf.Factor != old
	}
	t := tiles[rng.Intn(len(tiles))]
	all := [][][]int{t.SpaceFactors, t.ReduceFactors}
	group := all[rng.Intn(2)]
	if len(group) == 0 {
		group = t.SpaceFactors
	}
	if len(group) == 0 {
		return false, false
	}
	fs := group[rng.Intn(len(group))]
	if len(fs) == 0 {
		return false, false
	}
	// Pick a source level with a factor > 1 and move a divisor of it to
	// another level (or to the derived outer level by just dividing).
	srcCandidates := []int{}
	for i, f := range fs {
		if f > 1 {
			srcCandidates = append(srcCandidates, i)
		}
	}
	if len(srcCandidates) == 0 {
		// All inner levels are 1: steal from the derived outer level by
		// multiplying one inner level (replay checks divisibility).
		fs[rng.Intn(len(fs))] *= []int{2, 3, 4}[rng.Intn(3)]
		return true, true
	}
	src := srcCandidates[rng.Intn(len(srcCandidates))]
	ds := anno.Divisors(fs[src])
	f := ds[1+rng.Intn(len(ds)-1)] // a divisor > 1
	fs[src] /= f
	if rng.Intn(len(fs)+1) > 0 { // sometimes move to outer (derived)
		dst := rng.Intn(len(fs))
		fs[dst] *= f
		return true, dst != src // moving back to the source is a no-op
	}
	return true, true
}

// mutateAnnotation rewrites one annotation step's kind.
func mutateAnnotation(steps []ir.Step, rng *rand.Rand) (ok, changed bool) {
	var anns []*ir.AnnotateStep
	for _, s := range steps {
		if a, ok := s.(*ir.AnnotateStep); ok {
			anns = append(anns, a)
		}
	}
	if len(anns) == 0 {
		return false, false
	}
	a := anns[rng.Intn(len(anns))]
	choices := []ir.Annotation{ir.AnnNone, ir.AnnVectorize, ir.AnnUnroll, ir.AnnParallel}
	old := a.Ann
	a.Ann = choices[rng.Intn(len(choices))]
	return true, a.Ann != old
}

// mutateParallelGranularity changes how many outer loops are fused for
// the parallel annotation (the paper's parallel granularity mutation).
func mutateParallelGranularity(steps []ir.Step, rng *rand.Rand) (ok, changed bool) {
	for _, s := range steps {
		if f, ok := s.(*ir.FuseStep); ok && f.First == 0 {
			if rng.Intn(2) == 0 {
				f.Count++
				return true, true
			}
			if f.Count > 2 {
				f.Count--
				return true, true
			}
			return true, false
		}
	}
	return false, false
}

// mutateComputeLocation moves the fusion point of a fused consumer.
func mutateComputeLocation(steps []ir.Step, rng *rand.Rand) (ok, changed bool) {
	var fcs []*ir.FuseConsumerStep
	for _, s := range steps {
		if f, ok := s.(*ir.FuseConsumerStep); ok {
			fcs = append(fcs, f)
		}
	}
	if len(fcs) == 0 {
		return false, false
	}
	f := fcs[rng.Intn(len(fcs))]
	if rng.Intn(2) == 0 && f.OuterLevels > 1 {
		f.OuterLevels--
	} else {
		f.OuterLevels++
	}
	return true, true
}

// mutatePragma rewrites an auto_unroll_max_step pragma.
func mutatePragma(steps []ir.Step, rng *rand.Rand) (ok, changed bool) {
	candidates := []int{0, 16, 64, 512}
	for _, s := range steps {
		if p, ok := s.(*ir.PragmaStep); ok {
			old := p.AutoUnrollMax
			p.AutoUnrollMax = candidates[rng.Intn(len(candidates))]
			return true, p.AutoUnrollMax != old
		}
	}
	return false, false
}

// crossover merges two parents at node granularity (§5.1): for every node
// tag, the steps of the parent whose node scores higher are kept. Parent
// A's step sequence is the template; steps of tags donated by B are
// substituted positionally with B's same-type steps of that tag. A child
// that takes no step from B is parent A.
func (e *Search) crossover(dag *te.DAG, a, b *ir.State, scorer Scorer, rng *rand.Rand) *ir.State {
	holder := takeSteps()
	steps, fromB := crossSteps((*holder)[:0], a, b, scorer, rng)
	if !fromB {
		putSteps(holder, steps)
		return unchanged(a)
	}
	child, err := ir.Replay(dag, steps)
	putSteps(holder, steps)
	if err != nil || !child.Complete() || child.Validate() != nil {
		return nil
	}
	return child
}

// crossSteps appends the crossover child's steps (cloned) to dst and
// reports whether any of them came from b.
func crossSteps(dst []ir.Step, a, b *ir.State, scorer Scorer, rng *rand.Rand) ([]ir.Step, bool) {
	scoreA := scorer.NodeScores(a)
	scoreB := scorer.NodeScores(b)
	donorB := map[string]bool{}
	var tags []string
	seen := map[string]bool{}
	for _, s := range a.Steps {
		tag := ir.BaseStage(s.StageName())
		if !seen[tag] {
			seen[tag] = true
			tags = append(tags, tag)
		}
	}
	for _, tag := range tags {
		switch {
		case scoreA == nil || scoreB == nil:
			donorB[tag] = rng.Intn(2) == 0
		default:
			donorB[tag] = scoreB[tag] > scoreA[tag]
		}
	}
	// Index B's steps by (tag, type, ordinal).
	type key struct {
		tag  string
		kind string
	}
	bSteps := map[key][]ir.Step{}
	for _, s := range b.Steps {
		k := key{ir.BaseStage(s.StageName()), s.Name()}
		bSteps[k] = append(bSteps[k], s)
	}
	taken := map[key]int{}
	fromB := false
	for _, s := range a.Steps {
		tag := ir.BaseStage(s.StageName())
		if donorB[tag] {
			k := key{tag, s.Name()}
			if i := taken[k]; i < len(bSteps[k]) {
				taken[k] = i + 1
				dst = append(dst, bSteps[k][i].Clone())
				fromB = true
				continue
			}
		}
		dst = append(dst, s.Clone())
	}
	return dst, fromB
}
