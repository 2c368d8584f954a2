package ir

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/te"
)

// Step is one rewriting step. Programs are built exclusively by replaying
// steps from the naive state, so steps are the unit of mutation and
// crossover (§5.1).
type Step interface {
	// Name is the step kind, for diagnostics.
	Name() string
	// StageName is the primary stage the step rewrites.
	StageName() string
	// Apply rewrites the state or reports why it cannot.
	Apply(s *State) error
	// Clone returns an independent deep copy of the step.
	Clone() Step
}

// BaseStage maps a synthesized stage name back to its original node name:
// "C.cache" and "C.rf" both belong to node "C". Crossover merges steps at
// node granularity using this tag (§5.1 node-based crossover).
func BaseStage(name string) string {
	name = strings.TrimSuffix(name, ".cache")
	name = strings.TrimSuffix(name, ".rf")
	return name
}

// adjustAttachments remaps the attach indices of stages attached to the
// named target after its loop list changed.
func adjustAttachments(s *State, target string, remap func(int) int) {
	for _, st := range s.Stages {
		if st.Attached && st.AttachTarget == target {
			st.AttachIdx = remap(st.AttachIdx)
		}
	}
}

// shiftLevels opens room for inserted tile levels: every atom of the given
// axis with Level >= from is shifted by `by`.
func shiftLevels(st *Stage, axis, from, by int) {
	for _, it := range st.Iters {
		for i := range it.Atoms {
			if it.Atoms[i].Axis == axis && it.Atoms[i].Level >= from {
				it.Atoms[i].Level += by
			}
		}
	}
}

func prodFactors(fs []int) int {
	p := 1
	for _, f := range fs {
		p = mulExt(p, f)
	}
	return p
}

// ---------------------------------------------------------------- Inline

// InlineStep inlines a strictly inlinable stage into its consumers
// (Table 1 rule 2).
type InlineStep struct {
	Stage string
}

func (st *InlineStep) Name() string      { return "Inline" }
func (st *InlineStep) StageName() string { return st.Stage }
func (st *InlineStep) Clone() Step       { c := *st; return &c }

func (st *InlineStep) Apply(s *State) error {
	stage := s.Stage(st.Stage)
	if stage == nil {
		return fmt.Errorf("inline: no stage %q", st.Stage)
	}
	if stage.Attached {
		return fmt.Errorf("inline: stage %q is attached", st.Stage)
	}
	if len(stage.Node.ReduceAxes) > 0 {
		return fmt.Errorf("inline: stage %q has reduce axes", st.Stage)
	}
	if len(s.ConsumerStages(stage)) == 0 {
		return fmt.Errorf("inline: stage %q has no consumers", st.Stage)
	}
	stage.Inlined = true
	return nil
}

// ----------------------------------------------------------------- Split

// SplitStep splits one loop into len(Factors)+1 nested loops; Factors are
// the inner lengths (inner-to-outer reading left to right below the split
// point), the outer extent is derived.
type SplitStep struct {
	Stage   string
	IterIdx int
	Factors []int
}

func (st *SplitStep) Name() string      { return "Split" }
func (st *SplitStep) StageName() string { return st.Stage }
func (st *SplitStep) Clone() Step {
	c := *st
	c.Factors = append([]int(nil), st.Factors...)
	return &c
}

func (st *SplitStep) Apply(s *State) error {
	stage := s.Stage(st.Stage)
	if stage == nil {
		return fmt.Errorf("split: no stage %q", st.Stage)
	}
	if st.IterIdx < 0 || st.IterIdx >= len(stage.Iters) {
		return fmt.Errorf("split: iter %d out of range in %q", st.IterIdx, st.Stage)
	}
	it := stage.Iters[st.IterIdx]
	if len(it.Atoms) != 1 {
		return fmt.Errorf("split: iter %q of %q is fused", it.Name, st.Stage)
	}
	if len(st.Factors) == 0 {
		return fmt.Errorf("split: no factors")
	}
	atom := it.Atoms[0]
	p := prodFactors(st.Factors)
	if atom.Extent != Unfilled {
		if p == Unfilled {
			return fmt.Errorf("split: unfilled factors on concrete iter %q", it.Name)
		}
		if p <= 0 || atom.Extent%p != 0 {
			return fmt.Errorf("split: factors %v do not divide extent %d of %q",
				st.Factors, atom.Extent, it.Name)
		}
	}
	parts := len(st.Factors) + 1
	shiftLevels(stage, atom.Axis, atom.Level+1, parts-1)
	outer := Unfilled
	if atom.Extent != Unfilled {
		outer = atom.Extent / p
	}
	extents := append([]int{outer}, st.Factors...)
	var repl []*Iter
	for i, e := range extents {
		repl = append(repl, &Iter{
			Name:   it.Name + "." + strconv.Itoa(i),
			Extent: e,
			Kind:   it.Kind,
			Atoms:  []IterAtom{{Axis: atom.Axis, Level: atom.Level + i, Extent: e}},
		})
	}
	stage.Iters = append(stage.Iters[:st.IterIdx],
		append(repl, stage.Iters[st.IterIdx+1:]...)...)
	adjustAttachments(s, st.Stage, func(i int) int {
		if i >= st.IterIdx {
			return i + parts - 1
		}
		return i
	})
	return nil
}

// ------------------------------------------------------------------ Fuse

// FuseStep fuses Count contiguous loops starting at First into one loop.
type FuseStep struct {
	Stage string
	First int
	Count int
}

func (st *FuseStep) Name() string      { return "Fuse" }
func (st *FuseStep) StageName() string { return st.Stage }
func (st *FuseStep) Clone() Step       { c := *st; return &c }

func (st *FuseStep) Apply(s *State) error {
	stage := s.Stage(st.Stage)
	if stage == nil {
		return fmt.Errorf("fuse: no stage %q", st.Stage)
	}
	if st.Count < 2 || st.First < 0 || st.First+st.Count > len(stage.Iters) {
		return fmt.Errorf("fuse: range [%d,%d) invalid in %q (%d iters)",
			st.First, st.First+st.Count, st.Stage, len(stage.Iters))
	}
	// Fusing across an attach point (other than ending exactly on it)
	// would change how often the attached stage recomputes.
	for _, child := range s.Stages {
		if child.Attached && child.AttachTarget == st.Stage &&
			child.AttachIdx >= st.First && child.AttachIdx < st.First+st.Count-1 {
			return fmt.Errorf("fuse: range [%d,%d) in %q crosses attach point of %q",
				st.First, st.First+st.Count, st.Stage, child.Name)
		}
	}
	ext := 1
	var atoms []IterAtom
	var names []string
	kind := stage.Iters[st.First].Kind
	for i := st.First; i < st.First+st.Count; i++ {
		it := stage.Iters[i]
		if it.Kind != kind {
			return fmt.Errorf("fuse: mixing space and reduce loops in %q", st.Stage)
		}
		ext = mulExt(ext, it.Extent)
		atoms = append(atoms, it.Atoms...)
		names = append(names, it.Name)
	}
	fused := &Iter{Name: strings.Join(names, "@"), Extent: ext, Kind: kind, Atoms: atoms}
	stage.Iters = append(stage.Iters[:st.First],
		append([]*Iter{fused}, stage.Iters[st.First+st.Count:]...)...)
	adjustAttachments(s, st.Stage, func(i int) int {
		switch {
		case i >= st.First+st.Count:
			return i - st.Count + 1
		case i >= st.First:
			return st.First
		default:
			return i
		}
	})
	return nil
}

// --------------------------------------------------------------- Reorder

// ReorderStep permutes a stage's loops.
type ReorderStep struct {
	Stage string
	Perm  []int
}

func (st *ReorderStep) Name() string      { return "Reorder" }
func (st *ReorderStep) StageName() string { return st.Stage }
func (st *ReorderStep) Clone() Step {
	c := *st
	c.Perm = append([]int(nil), st.Perm...)
	return &c
}

func (st *ReorderStep) Apply(s *State) error {
	stage := s.Stage(st.Stage)
	if stage == nil {
		return fmt.Errorf("reorder: no stage %q", st.Stage)
	}
	if len(st.Perm) != len(stage.Iters) {
		return fmt.Errorf("reorder: perm size %d != %d iters in %q",
			len(st.Perm), len(stage.Iters), st.Stage)
	}
	seen := make([]bool, len(st.Perm))
	out := make([]*Iter, len(st.Perm))
	for i, p := range st.Perm {
		if p < 0 || p >= len(st.Perm) || seen[p] {
			return fmt.Errorf("reorder: bad permutation %v", st.Perm)
		}
		seen[p] = true
		out[i] = stage.Iters[p]
	}
	inv := make([]int, len(st.Perm))
	for i, p := range st.Perm {
		inv[p] = i
	}
	stage.Iters = out
	adjustAttachments(s, st.Stage, func(i int) int { return inv[i] })
	return nil
}

// -------------------------------------------------------------- Annotate

// AnnotateStep marks one loop parallel, vectorized or unrolled (§4.2).
type AnnotateStep struct {
	Stage   string
	IterIdx int
	Ann     Annotation
}

func (st *AnnotateStep) Name() string      { return "Annotate" }
func (st *AnnotateStep) StageName() string { return st.Stage }
func (st *AnnotateStep) Clone() Step       { c := *st; return &c }

func (st *AnnotateStep) Apply(s *State) error {
	stage := s.Stage(st.Stage)
	if stage == nil {
		return fmt.Errorf("annotate: no stage %q", st.Stage)
	}
	if st.IterIdx < 0 || st.IterIdx >= len(stage.Iters) {
		return fmt.Errorf("annotate: iter %d out of range in %q", st.IterIdx, st.Stage)
	}
	it := stage.Iters[st.IterIdx]
	if st.Ann == AnnVectorize && it.Kind == te.Reduce {
		return fmt.Errorf("annotate: cannot vectorize reduce loop %q", it.Name)
	}
	if st.Ann == AnnParallel && it.Kind == te.Reduce {
		return fmt.Errorf("annotate: cannot parallelize reduce loop %q", it.Name)
	}
	it.Ann = st.Ann
	return nil
}

// ---------------------------------------------------------------- Pragma

// PragmaStep sets the auto_unroll_max_step pragma on a stage (§4.2).
type PragmaStep struct {
	Stage         string
	AutoUnrollMax int
}

func (st *PragmaStep) Name() string      { return "Pragma" }
func (st *PragmaStep) StageName() string { return st.Stage }
func (st *PragmaStep) Clone() Step       { c := *st; return &c }

func (st *PragmaStep) Apply(s *State) error {
	stage := s.Stage(st.Stage)
	if stage == nil {
		return fmt.Errorf("pragma: no stage %q", st.Stage)
	}
	stage.AutoUnrollMax = st.AutoUnrollMax
	return nil
}

// ---------------------------------------------------------- LayoutRewrite

// LayoutRewriteStep rewrites the layouts of the constant tensors a stage
// reads to match its multi-level tile structure (§4.2). Weight tensors of
// convolution/dense layers are constants for inference, so this is always
// legal; the effect is that weight accesses become unit-stride for the
// innermost tile loops.
type LayoutRewriteStep struct {
	Stage string
}

func (st *LayoutRewriteStep) Name() string      { return "LayoutRewrite" }
func (st *LayoutRewriteStep) StageName() string { return st.Stage }
func (st *LayoutRewriteStep) Clone() Step       { c := *st; return &c }

func (st *LayoutRewriteStep) Apply(s *State) error {
	stage := s.Stage(st.Stage)
	if stage == nil {
		return fmt.Errorf("layoutrewrite: no stage %q", st.Stage)
	}
	hasConst := false
	for _, a := range stage.Node.Reads {
		if a.Tensor.Const {
			hasConst = true
		}
	}
	if !hasConst {
		return fmt.Errorf("layoutrewrite: stage %q reads no constant tensors", st.Stage)
	}
	stage.PackedConst = true
	return nil
}

// --------------------------------------------------------- MultiLevelTile

// MultiLevelTileStep applies the paper's multi-level tiling (Table 1 rule
// 3). Structure is a string such as "SSRSRS" (CPU) or "SSSRRSRS" (GPU):
// each 'S' is one tile level of all space loops, each 'R' one tile level
// of all reduce loops. SpaceFactors[i] holds the inner tile lengths of the
// i-th space axis (len = number of 'S' minus one; the outermost length is
// derived); nil factor lists produce a sketch with Unfilled extents.
type MultiLevelTileStep struct {
	Stage         string
	Structure     string
	SpaceFactors  [][]int
	ReduceFactors [][]int
}

func (st *MultiLevelTileStep) Name() string      { return "MultiLevelTile" }
func (st *MultiLevelTileStep) StageName() string { return st.Stage }
func (st *MultiLevelTileStep) Clone() Step {
	c := *st
	c.SpaceFactors = cloneFactors(st.SpaceFactors)
	c.ReduceFactors = cloneFactors(st.ReduceFactors)
	return &c
}

func cloneFactors(f [][]int) [][]int {
	if f == nil {
		return nil
	}
	out := make([][]int, len(f))
	for i := range f {
		out[i] = append([]int(nil), f[i]...)
	}
	return out
}

// levelExtents computes the per-level extents of one axis given its full
// extent and the inner factors (outermost derived); factors nil yields all
// Unfilled.
func levelExtents(extent, levels int, factors []int) ([]int, error) {
	out := make([]int, levels)
	if factors == nil {
		for i := range out {
			out[i] = Unfilled
		}
		return out, nil
	}
	if len(factors) != levels-1 {
		return nil, fmt.Errorf("want %d factors, got %d", levels-1, len(factors))
	}
	p := prodFactors(factors)
	if p <= 0 || extent%p != 0 {
		return nil, fmt.Errorf("factors %v do not divide extent %d", factors, extent)
	}
	out[0] = extent / p
	copy(out[1:], factors)
	return out, nil
}

func (st *MultiLevelTileStep) Apply(s *State) error {
	stage := s.Stage(st.Stage)
	if stage == nil {
		return fmt.Errorf("tile: no stage %q", st.Stage)
	}
	nSpace := strings.Count(st.Structure, "S")
	nReduce := strings.Count(st.Structure, "R")
	if nSpace == 0 || len(st.Structure) != nSpace+nReduce {
		return fmt.Errorf("tile: bad structure %q", st.Structure)
	}
	node := stage.Node
	if len(node.ReduceAxes) == 0 && nReduce > 0 {
		return fmt.Errorf("tile: structure %q needs reduce axes; %q has none", st.Structure, st.Stage)
	}
	// A space-only structure (e.g. Halide-style "SS" tiling that never
	// splits reductions) keeps the reduce loops whole, innermost.
	keepReduce := nReduce == 0 && len(node.ReduceAxes) > 0
	// The stage must still be the naive nest.
	for _, it := range stage.Iters {
		if len(it.Atoms) != 1 || it.Atoms[0].Level != 0 {
			return fmt.Errorf("tile: stage %q already transformed", st.Stage)
		}
	}
	nS, nR := len(node.SpaceAxes), len(node.ReduceAxes)
	spaceExt := make([][]int, nS)
	for i, a := range node.SpaceAxes {
		var fs []int
		if st.SpaceFactors != nil {
			fs = st.SpaceFactors[i]
		}
		e, err := levelExtents(a.Extent, nSpace, fs)
		if err != nil {
			return fmt.Errorf("tile: space axis %s: %w", a.Name, err)
		}
		spaceExt[i] = e
	}
	reduceExt := make([][]int, nR)
	for i, a := range node.ReduceAxes {
		var fs []int
		if st.ReduceFactors != nil {
			fs = st.ReduceFactors[i]
		}
		e, err := levelExtents(a.Extent, nReduce, fs)
		if err != nil {
			return fmt.Errorf("tile: reduce axis %s: %w", a.Name, err)
		}
		reduceExt[i] = e
	}
	var iters []*Iter
	sLevel, rLevel := 0, 0
	for _, c := range st.Structure {
		if c == 'S' {
			for i, a := range node.SpaceAxes {
				iters = append(iters, &Iter{
					Name:   a.Name + "." + strconv.Itoa(sLevel),
					Extent: spaceExt[i][sLevel],
					Kind:   te.Space,
					Atoms:  []IterAtom{{Axis: i, Level: sLevel, Extent: spaceExt[i][sLevel]}},
				})
			}
			sLevel++
		} else {
			for i, a := range node.ReduceAxes {
				iters = append(iters, &Iter{
					Name:   a.Name + "." + strconv.Itoa(rLevel),
					Extent: reduceExt[i][rLevel],
					Kind:   te.Reduce,
					Atoms:  []IterAtom{{Axis: nS + i, Level: rLevel, Extent: reduceExt[i][rLevel]}},
				})
			}
			rLevel++
		}
	}
	if keepReduce {
		for i, a := range node.ReduceAxes {
			iters = append(iters, &Iter{
				Name:   a.Name,
				Extent: a.Extent,
				Kind:   te.Reduce,
				Atoms:  []IterAtom{{Axis: nS + i, Level: 0, Extent: a.Extent}},
			})
		}
	}
	stage.Iters = iters
	stage.TiledSpaceLevels = nSpace
	return nil
}

// ----------------------------------------------------------- FuseConsumer

// FuseConsumerStep implements Table 1 rule 4's fusion: the multi-level
// tiled producer is attached under its elementwise consumer, which takes
// over the producer's OuterLevels outermost space tile levels and keeps
// one fused inner loop per axis (Figure 5's generated sketch 1).
type FuseConsumerStep struct {
	Producer    string
	Consumer    string
	OuterLevels int
}

func (st *FuseConsumerStep) Name() string      { return "FuseConsumer" }
func (st *FuseConsumerStep) StageName() string { return st.Producer }
func (st *FuseConsumerStep) Clone() Step       { c := *st; return &c }

func (st *FuseConsumerStep) Apply(s *State) error {
	p := s.Stage(st.Producer)
	c := s.Stage(st.Consumer)
	if p == nil || c == nil {
		return fmt.Errorf("fuseconsumer: missing stage %q or %q", st.Producer, st.Consumer)
	}
	if p.TiledSpaceLevels < st.OuterLevels || st.OuterLevels < 1 {
		return fmt.Errorf("fuseconsumer: producer %q has %d tile levels, need >= %d",
			st.Producer, p.TiledSpaceLevels, st.OuterLevels)
	}
	if c.Inlined || c.Attached {
		return fmt.Errorf("fuseconsumer: consumer %q not schedulable", st.Consumer)
	}
	nS := len(p.Node.SpaceAxes)
	if len(c.Node.SpaceAxes) != nS || len(c.Node.ReduceAxes) != 0 {
		return fmt.Errorf("fuseconsumer: consumer %q shape mismatch", st.Consumer)
	}
	// The consumer must read the producer's output identically (possibly
	// through a chain of inlined elementwise stages).
	reads, _, _ := s.effectiveReads(c, map[string]bool{})
	identity := false
	for _, acc := range reads {
		if acc.Tensor != p.Node.Out {
			continue
		}
		ok := true
		for d, ix := range acc.Index {
			if len(ix.Terms) != 1 || ix.Terms[0].Axis != d || ix.Terms[0].Coeff != 1 || ix.Const != 0 {
				ok = false
				break
			}
		}
		if ok {
			identity = true
			break
		}
	}
	if !identity {
		return fmt.Errorf("fuseconsumer: %q does not read %q elementwise", st.Consumer, st.Producer)
	}
	// Consumer must still be naive.
	for _, it := range c.Iters {
		if len(it.Atoms) != 1 || it.Atoms[0].Level != 0 {
			return fmt.Errorf("fuseconsumer: consumer %q already transformed", st.Consumer)
		}
	}
	// Gather the producer's per-axis per-level space extents.
	levels := make([][]int, nS) // [axis][level]extent
	for i := range levels {
		levels[i] = make([]int, p.TiledSpaceLevels)
	}
	for _, it := range p.Iters {
		for _, at := range it.Atoms {
			if at.Axis < nS {
				levels[at.Axis][at.Level] = at.Extent
			}
		}
	}
	// Rebuild the consumer nest: OuterLevels blocks of all axes, then one
	// fused inner loop per axis covering the producer's remaining levels.
	var iters []*Iter
	for l := 0; l < st.OuterLevels; l++ {
		for a := 0; a < nS; a++ {
			iters = append(iters, &Iter{
				Name:   c.Node.SpaceAxes[a].Name + "." + strconv.Itoa(l),
				Extent: levels[a][l],
				Kind:   te.Space,
				Atoms:  []IterAtom{{Axis: a, Level: l, Extent: levels[a][l]}},
			})
		}
	}
	for a := 0; a < nS; a++ {
		inner := 1
		for l := st.OuterLevels; l < p.TiledSpaceLevels; l++ {
			inner = mulExt(inner, levels[a][l])
		}
		iters = append(iters, &Iter{
			Name:   c.Node.SpaceAxes[a].Name + ".in",
			Extent: inner,
			Kind:   te.Space,
			Atoms:  []IterAtom{{Axis: a, Level: st.OuterLevels, Extent: inner}},
		})
	}
	c.Iters = iters
	c.TiledSpaceLevels = st.OuterLevels + 1
	// Drop the producer's outer space levels; it is attached below them.
	var kept []*Iter
	for _, it := range p.Iters {
		at := it.Atoms[0]
		if at.Axis < nS && at.Level < st.OuterLevels {
			continue
		}
		kept = append(kept, it)
	}
	p.Iters = kept
	p.Attached = true
	p.AttachTarget = c.Name
	p.AttachIdx = st.OuterLevels*nS - 1
	return nil
}

// ------------------------------------------------------------- CacheWrite

// CacheWriteStep adds a cache stage for a data-reusable node that lacks a
// fusible consumer (Table 1 rule 5): the heavy computation moves into
// "<name>.cache" and the original stage becomes the cache-to-memory copy,
// which is now a fusible consumer for rule 4.
type CacheWriteStep struct {
	Stage string
}

func (st *CacheWriteStep) Name() string      { return "CacheWrite" }
func (st *CacheWriteStep) StageName() string { return st.Stage }
func (st *CacheWriteStep) Clone() Step       { c := *st; return &c }

func (st *CacheWriteStep) Apply(s *State) error {
	idx := s.StageIndex(st.Stage)
	if idx < 0 {
		return fmt.Errorf("cachewrite: no stage %q", st.Stage)
	}
	orig := s.Stages[idx]
	if orig.Kind != StageNormal || orig.Inlined || orig.Attached {
		return fmt.Errorf("cachewrite: stage %q not schedulable", st.Stage)
	}
	n := orig.Node
	cacheT := &te.Tensor{
		Name:      n.Out.Name + ".cache",
		Shape:     append([]int(nil), n.Out.Shape...),
		ElemBytes: n.Out.ElemBytes,
	}
	cacheNode := &te.Node{
		Name:       n.Name + ".cache",
		Out:        cacheT,
		SpaceAxes:  append([]te.Axis(nil), n.SpaceAxes...),
		ReduceAxes: append([]te.Axis(nil), n.ReduceAxes...),
		Reads:      append([]te.Access(nil), n.Reads...),
		Flops:      n.Flops,
		DataReuse:  n.DataReuse,
	}
	copyReads := make([]te.LinExpr, len(n.SpaceAxes))
	for i := range copyReads {
		copyReads[i] = te.Var(i)
	}
	copyNode := &te.Node{
		Name:      n.Name,
		Out:       n.Out,
		SpaceAxes: append([]te.Axis(nil), n.SpaceAxes...),
		Reads:     []te.Access{{Tensor: cacheT, Index: copyReads}},
		Flops:     te.FlopCount{},
	}
	cacheStage := naiveStage(cacheNode)
	cacheStage.Kind = StageCache
	orig.Node = copyNode
	orig.Iters = naiveStage(copyNode).Iters
	orig.TiledSpaceLevels = 0
	s.Stages = append(s.Stages[:idx],
		append([]*Stage{cacheStage}, s.Stages[idx:]...)...)
	return nil
}

// ---------------------------------------------------------------- RFactor

// RFactorStep implements Table 1 rule 6: it splits the ReduceIdx-th reduce
// axis by Factor and factorizes the inner piece into a space axis of a new
// "<name>.rf" stage (Figure 5's generated sketch 3). The original stage is
// left reducing over the factored piece.
type RFactorStep struct {
	Stage     string
	ReduceIdx int
	Factor    int
}

func (st *RFactorStep) Name() string      { return "RFactor" }
func (st *RFactorStep) StageName() string { return st.Stage }
func (st *RFactorStep) Clone() Step       { c := *st; return &c }

func (st *RFactorStep) Apply(s *State) error {
	idx := s.StageIndex(st.Stage)
	if idx < 0 {
		return fmt.Errorf("rfactor: no stage %q", st.Stage)
	}
	orig := s.Stages[idx]
	n := orig.Node
	if orig.Kind != StageNormal || orig.Inlined || orig.Attached {
		return fmt.Errorf("rfactor: stage %q not schedulable", st.Stage)
	}
	if st.ReduceIdx < 0 || st.ReduceIdx >= len(n.ReduceAxes) {
		return fmt.Errorf("rfactor: reduce axis %d out of range in %q", st.ReduceIdx, st.Stage)
	}
	target := n.ReduceAxes[st.ReduceIdx]
	if st.Factor <= 0 || target.Extent%st.Factor != 0 {
		return fmt.Errorf("rfactor: factor %d does not divide extent %d of %q",
			st.Factor, target.Extent, target.Name)
	}
	nS := len(n.SpaceAxes)
	g := nS + st.ReduceIdx // global index of the factored axis
	ri := te.Axis{Name: target.Name + "_i", Extent: st.Factor, Kind: te.Space}
	ro := te.Axis{Name: target.Name + "_o", Extent: target.Extent / st.Factor, Kind: te.Reduce}

	// Axis remap for the rf node: old space i -> i; ri -> nS; ro -> nS+1;
	// remaining old reduce axes keep relative order after ro.
	remap := make(map[int]te.LinExpr)
	for i := 0; i < nS; i++ {
		remap[i] = te.Var(i)
	}
	next := nS + 2
	var otherReduce []te.Axis
	for i, a := range n.ReduceAxes {
		if i == st.ReduceIdx {
			// k = ro*Factor + ri
			remap[g] = te.Scaled(nS+1, st.Factor).Add(te.Var(nS))
			continue
		}
		remap[nS+i] = te.Var(next)
		otherReduce = append(otherReduce, a)
		next++
	}
	rewrite := func(e te.LinExpr) te.LinExpr {
		out := te.LinExpr{Const: e.Const}
		for _, t := range e.Terms {
			sub := remap[t.Axis]
			for _, s2 := range sub.Terms {
				out.Terms = append(out.Terms, te.Term{Axis: s2.Axis, Coeff: s2.Coeff * t.Coeff})
			}
			out.Const += sub.Const * t.Coeff
		}
		return out
	}
	var reads []te.Access
	for _, a := range n.Reads {
		ix := make([]te.LinExpr, len(a.Index))
		for i, e := range a.Index {
			ix[i] = rewrite(e)
		}
		reads = append(reads, te.Access{Tensor: a.Tensor, Index: ix})
	}
	rfT := &te.Tensor{
		Name:      n.Out.Name + ".rf",
		Shape:     append(append([]int(nil), n.Out.Shape...), st.Factor),
		ElemBytes: n.Out.ElemBytes,
	}
	rfNode := &te.Node{
		Name:       n.Name + ".rf",
		Out:        rfT,
		SpaceAxes:  append(append([]te.Axis(nil), n.SpaceAxes...), ri),
		ReduceAxes: append([]te.Axis{ro}, otherReduce...),
		Reads:      reads,
		Flops:      n.Flops,
		DataReuse:  n.DataReuse,
	}
	// rf stage loop order: space..., other reduces..., ro, ri — the new
	// space axis ri is innermost so it can be vectorized (Figure 5,
	// sampled program 4).
	rfStage := &Stage{Name: rfNode.Name, Node: rfNode, Kind: StageRFactor}
	for i, a := range n.SpaceAxes {
		rfStage.Iters = append(rfStage.Iters, &Iter{
			Name: a.Name, Extent: a.Extent, Kind: te.Space,
			Atoms: []IterAtom{{Axis: i, Level: 0, Extent: a.Extent}},
		})
	}
	for i := range otherReduce {
		g2 := nS + 2 + i
		rfStage.Iters = append(rfStage.Iters, &Iter{
			Name: otherReduce[i].Name, Extent: otherReduce[i].Extent, Kind: te.Reduce,
			Atoms: []IterAtom{{Axis: g2, Level: 0, Extent: otherReduce[i].Extent}},
		})
	}
	rfStage.Iters = append(rfStage.Iters,
		&Iter{Name: ro.Name, Extent: ro.Extent, Kind: te.Reduce,
			Atoms: []IterAtom{{Axis: nS + 1, Level: 0, Extent: ro.Extent}}},
		&Iter{Name: ri.Name, Extent: ri.Extent, Kind: te.Space,
			Atoms: []IterAtom{{Axis: nS, Level: 0, Extent: ri.Extent}}},
	)

	// Original stage: reduce the rf tensor over ri.
	finalIdx := make([]te.LinExpr, nS+1)
	for i := 0; i < nS; i++ {
		finalIdx[i] = te.Var(i)
	}
	finalIdx[nS] = te.Var(nS) // ri is the single reduce axis, global idx nS
	finalNode := &te.Node{
		Name:       n.Name,
		Out:        n.Out,
		SpaceAxes:  append([]te.Axis(nil), n.SpaceAxes...),
		ReduceAxes: []te.Axis{{Name: ri.Name, Extent: st.Factor, Kind: te.Reduce}},
		Reads:      []te.Access{{Tensor: rfT, Index: finalIdx}},
		Flops:      te.FlopCount{AddF: 1},
	}
	orig.Node = finalNode
	orig.Iters = naiveStage(finalNode).Iters
	orig.TiledSpaceLevels = 0
	s.Stages = append(s.Stages[:idx],
		append([]*Stage{rfStage}, s.Stages[idx:]...)...)
	return nil
}

// -------------------------------------------------------------- ComputeAt

// ComputeAtStep attaches a simple (untiled) stage under a consumer loop,
// shrinking its extents to the region the consumer's remaining inner loops
// need (used by the annotation sampler's compute-location tweaks, §4.2,
// e.g. computing padding inside the convolution's tiles).
type ComputeAtStep struct {
	Stage   string
	Target  string
	IterIdx int
}

func (st *ComputeAtStep) Name() string      { return "ComputeAt" }
func (st *ComputeAtStep) StageName() string { return st.Stage }
func (st *ComputeAtStep) Clone() Step       { c := *st; return &c }

// accessMatrix returns M[pa][ca]: the coefficient of consumer axis ca in
// dim pa of the consumer's read of the producer's output (reads expanded
// through inlined stages).
func accessMatrix(s *State, consumer, producer *Stage) ([][]int, error) {
	reads, _, _ := s.effectiveReads(consumer, map[string]bool{})
	var acc *te.Access
	for i := range reads {
		if reads[i].Tensor == producer.Node.Out {
			acc = &reads[i]
			break
		}
	}
	if acc == nil {
		return nil, fmt.Errorf("stage %q does not read %q", consumer.Name, producer.Name)
	}
	nCA := consumer.Node.NumAxes()
	m := make([][]int, len(acc.Index))
	for pa := range acc.Index {
		m[pa] = make([]int, nCA)
		for ca := 0; ca < nCA; ca++ {
			m[pa][ca] = acc.Index[pa].CoeffOf(ca)
		}
	}
	return m, nil
}

func (st *ComputeAtStep) Apply(s *State) error {
	stage := s.Stage(st.Stage)
	tgt := s.Stage(st.Target)
	if stage == nil || tgt == nil {
		return fmt.Errorf("computeat: missing stage %q or %q", st.Stage, st.Target)
	}
	if stage.Inlined || stage.Attached || stage.TiledSpaceLevels > 0 {
		return fmt.Errorf("computeat: stage %q not simple", st.Stage)
	}
	if len(stage.Node.ReduceAxes) > 0 {
		return fmt.Errorf("computeat: stage %q has reduce axes", st.Stage)
	}
	if tgt.Inlined {
		return fmt.Errorf("computeat: target %q is inlined", st.Target)
	}
	if st.IterIdx < 0 || st.IterIdx >= len(tgt.Iters) {
		return fmt.Errorf("computeat: iter %d out of range in %q", st.IterIdx, st.Target)
	}
	m, err := accessMatrix(s, tgt, stage)
	if err != nil {
		return fmt.Errorf("computeat: %w", err)
	}
	// Inner extent of each consumer axis: product of atoms in loops deeper
	// than the attach point.
	nCA := tgt.Node.NumAxes()
	innerExt := make([]int, nCA)
	for i := range innerExt {
		innerExt[i] = 1
	}
	for i := st.IterIdx + 1; i < len(tgt.Iters); i++ {
		for _, at := range tgt.Iters[i].Atoms {
			innerExt[at.Axis] = mulExt(innerExt[at.Axis], at.Extent)
		}
	}
	// Needed producer extents: 1 + sum of coeff*(innerExt-1) per axis.
	for pa, it := range stage.Iters {
		need := 1
		for ca := 0; ca < nCA; ca++ {
			c := m[pa][ca]
			if c == 0 {
				continue
			}
			if innerExt[ca] == Unfilled {
				return fmt.Errorf("computeat: target %q has unfilled tiles", st.Target)
			}
			if c < 0 {
				c = -c
			}
			need += c * (innerExt[ca] - 1)
		}
		full := stage.axisExtent(it.Atoms[0].Axis)
		if need > full {
			need = full
		}
		it.Extent = need
		it.Atoms[0].Extent = need
	}
	stage.Attached = true
	stage.AttachTarget = st.Target
	stage.AttachIdx = st.IterIdx
	return nil
}

// ------------------------------------------------------------ ComputeRoot

// ComputeRootStep detaches a previously attached simple stage, restoring
// its full extents.
type ComputeRootStep struct {
	Stage string
}

func (st *ComputeRootStep) Name() string      { return "ComputeRoot" }
func (st *ComputeRootStep) StageName() string { return st.Stage }
func (st *ComputeRootStep) Clone() Step       { c := *st; return &c }

func (st *ComputeRootStep) Apply(s *State) error {
	stage := s.Stage(st.Stage)
	if stage == nil {
		return fmt.Errorf("computeroot: no stage %q", st.Stage)
	}
	if !stage.Attached {
		return fmt.Errorf("computeroot: stage %q not attached", st.Stage)
	}
	stage.Attached = false
	stage.AttachTarget = ""
	stage.AttachIdx = 0
	for _, it := range stage.Iters {
		full := stage.axisExtent(it.Atoms[0].Axis)
		it.Extent = full
		it.Atoms[0].Extent = full
	}
	return nil
}
