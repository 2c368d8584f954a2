// Package ir implements Ansor's program representation: a loop state per
// computation stage, plus a replayable list of transform steps.
//
// Every program Ansor considers is "the naive program of a DAG plus an
// ordered list of rewriting steps" (§5.1: "the genes of a program in Ansor
// are its rewriting steps"). States are only ever built by replaying steps,
// which is what makes evolutionary crossover and mutation well-defined:
// operators edit the step list and the system re-derives (and re-validates)
// the loop nest from scratch.
package ir

import (
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/te"
)

// Annotation marks how a loop is executed.
type Annotation int

const (
	AnnNone Annotation = iota
	AnnParallel
	AnnVectorize
	AnnUnroll
)

func (a Annotation) String() string {
	switch a {
	case AnnParallel:
		return "parallel"
	case AnnVectorize:
		return "vectorize"
	case AnnUnroll:
		return "unroll"
	default:
		return "for"
	}
}

// Unfilled is the extent of a tile loop whose size has not been chosen yet.
// Sketches contain Unfilled extents; complete programs do not (§4).
const Unfilled = -1

// mulExt multiplies extents, propagating Unfilled.
func mulExt(a, b int) int {
	if a == Unfilled || b == Unfilled {
		return Unfilled
	}
	return a * b
}

// IterAtom identifies one tile piece of one original axis: which axis, at
// which tile level (level 0 is outermost), with which extent.
type IterAtom struct {
	Axis   int // index into the stage node's Axes()
	Level  int
	Extent int
}

// Iter is one loop of a stage's loop nest. A fused loop carries several
// atoms; a plain loop carries exactly one.
type Iter struct {
	Name   string
	Extent int
	Kind   te.AxisKind
	Ann    Annotation
	Atoms  []IterAtom // outer→inner order for fused loops
}

// clone returns a deep copy of the iter.
func (it *Iter) clone() *Iter {
	c := *it
	c.Atoms = append([]IterAtom(nil), it.Atoms...)
	return &c
}

// StageKind distinguishes original nodes from stages synthesized by steps.
type StageKind int

const (
	StageNormal StageKind = iota
	StageCache            // added by CacheWriteStep (rule 5)
	StageRFactor
)

// Stage is the loop nest of one computation.
type Stage struct {
	Name string
	Node *te.Node // synthesized for cache/rfactor stages
	Kind StageKind

	Iters   []*Iter
	Inlined bool

	// Attached stages nest inside AttachTarget after its AttachIdx-th loop.
	Attached     bool
	AttachTarget string
	AttachIdx    int

	// AutoUnrollMax is the auto_unroll_max_step pragma (§4.2, Appendix B).
	AutoUnrollMax int

	// TiledSpaceLevels records how many space tile levels a
	// MultiLevelTileStep produced (0 = untiled); FuseConsumerStep needs it.
	TiledSpaceLevels int

	// PackedConst marks the stage's constant-tensor reads as rewritten to
	// the cache-friendly layout matching the tile structure (§4.2's
	// layout rewrite of constant tensors).
	PackedConst bool
}

func (st *Stage) clone() *Stage {
	c := *st
	c.Iters = make([]*Iter, len(st.Iters))
	for i, it := range st.Iters {
		c.Iters[i] = it.clone()
	}
	return &c
}

// axisExtent returns the full extent of axis a of the stage's node
// (indexed as in Node.Axes, space axes first).
func (st *Stage) axisExtent(a int) int {
	if ns := len(st.Node.SpaceAxes); a >= ns {
		return st.Node.ReduceAxes[a-ns].Extent
	}
	return st.Node.SpaceAxes[a].Extent
}

// strideOf returns the product of extents of all atoms of the given axis
// with a tile level strictly greater than level — i.e. the step in the
// original axis value taken by one iteration of the (axis, level) loop.
func (st *Stage) strideOf(axis, level int) int {
	s := 1
	for _, it := range st.Iters {
		for _, at := range it.Atoms {
			if at.Axis == axis && at.Level > level {
				s = mulExt(s, at.Extent)
			}
		}
	}
	return s
}

// IterCount returns the product of all loop extents of the stage, or
// Unfilled if any extent is unfilled.
func (st *Stage) IterCount() int64 {
	p := int64(1)
	for _, it := range st.Iters {
		if it.Extent == Unfilled {
			return int64(Unfilled)
		}
		p *= int64(it.Extent)
	}
	return p
}

// Complete reports whether all loop extents are filled in.
func (st *Stage) Complete() bool {
	for _, it := range st.Iters {
		if it.Extent == Unfilled {
			return false
		}
	}
	return true
}

// State is a (possibly partial) program: per-stage loop nests plus the
// rewriting history that produced them.
type State struct {
	DAG    *te.DAG
	Stages []*Stage
	Steps  []Step

	// sig memoizes Signature/FamilySignature. A state's structure only
	// changes through Apply, which drops the memo; after the final
	// replay step a state is immutable, so the search-side hot path
	// (dedupe maps, the feature cache, best tracking) computes each
	// program's signature exactly once instead of rebuilding the string
	// per lookup. The pointer is atomic because sharded scoring reads
	// signatures of shared states concurrently; racing computations
	// store identical immutable memos, so any winner is correct.
	sig atomic.Pointer[sigMemo]
}

// sigMemo is an immutable signature pair cached on a State.
type sigMemo struct {
	sig string
	fam string
}

// NewState returns the naive program of the DAG: one stage per node, one
// loop per axis (space then reduce), no annotations.
func NewState(dag *te.DAG) *State {
	s := &State{DAG: dag}
	for _, n := range dag.Nodes {
		s.Stages = append(s.Stages, naiveStage(n))
	}
	return s
}

func naiveStage(n *te.Node) *Stage {
	st := &Stage{Name: n.Name, Node: n}
	for i, a := range n.Axes() {
		st.Iters = append(st.Iters, &Iter{
			Name:   a.Name,
			Extent: a.Extent,
			Kind:   a.Kind,
			Atoms:  []IterAtom{{Axis: i, Level: 0, Extent: a.Extent}},
		})
	}
	return st
}

// Clone returns a deep copy of the state (steps are shared; they are
// immutable after application). The signature memo carries over: a
// clone is structurally identical until its next Apply, which drops it.
func (s *State) Clone() *State {
	c := &State{DAG: s.DAG}
	c.Stages = make([]*Stage, len(s.Stages))
	for i, st := range s.Stages {
		c.Stages[i] = st.clone()
	}
	c.Steps = append([]Step(nil), s.Steps...)
	c.sig.Store(s.sig.Load())
	return c
}

// Stage returns the stage with the given name, or nil.
func (s *State) Stage(name string) *Stage {
	for _, st := range s.Stages {
		if st.Name == name {
			return st
		}
	}
	return nil
}

// StageIndex returns the index of the named stage, or -1.
func (s *State) StageIndex(name string) int {
	for i, st := range s.Stages {
		if st.Name == name {
			return i
		}
	}
	return -1
}

// ProducerStage returns the stage producing tensor t, or nil.
func (s *State) ProducerStage(t *te.Tensor) *Stage {
	for _, st := range s.Stages {
		if st.Node.Out == t {
			return st
		}
	}
	return nil
}

// ConsumerStages returns the stages reading the output of st.
func (s *State) ConsumerStages(st *Stage) []*Stage {
	var out []*Stage
	for _, c := range s.Stages {
		if c == st {
			continue
		}
		for _, a := range c.Node.Reads {
			if a.Tensor == st.Node.Out {
				out = append(out, c)
				break
			}
		}
	}
	return out
}

// EffectiveReads returns the stage's reads with inlined producers
// substituted recursively, plus the extra per-iteration flop cost of the
// inlined computation and the fraction of statically-zero multiplications
// introduced by inlined predicated producers.
func (s *State) EffectiveReads(st *Stage) ([]te.Access, te.FlopCount, float64) {
	return s.effectiveReads(st, map[string]bool{})
}

func (s *State) effectiveReads(st *Stage, visiting map[string]bool) ([]te.Access, te.FlopCount, float64) {
	visiting[st.Name] = true
	defer delete(visiting, st.Name)
	var out []te.Access
	var extra te.FlopCount
	nonZero := 1.0
	for _, acc := range st.Node.Reads {
		prod := s.ProducerStage(acc.Tensor)
		if prod == nil || !prod.Inlined || visiting[prod.Name] {
			out = append(out, acc)
			continue
		}
		subReads, subExtra, subZF := s.effectiveReads(prod, visiting)
		for _, sr := range subReads {
			out = append(out, composeAccess(sr, acc))
		}
		pf := prod.Node.Flops
		if prod.Node.Predicated {
			// A code generator partitions loops so the predicate of an
			// inlined boundary node (padding, zero-insertion) is only
			// evaluated near the borders; charge the border fraction.
			pf = scaleFlops(pf, 0.15)
		}
		extra = addFlops(extra, addFlops(subExtra, pf))
		nonZero *= (1 - subZF) * (1 - prod.Node.ZeroFraction)
	}
	return out, extra, 1 - nonZero
}

func scaleFlops(f te.FlopCount, k float64) te.FlopCount {
	return te.FlopCount{
		AddF: f.AddF * k, SubF: f.SubF * k, MulF: f.MulF * k, DivF: f.DivF * k,
		MaxF: f.MaxF * k, CmpF: f.CmpF * k, MathF: f.MathF * k, IntOps: f.IntOps * k,
	}
}

// EffectiveConsumer returns the single non-inlined consumer of a stage,
// looking through inlined elementwise stages; nil if the stage has zero or
// multiple consumers at any link of the chain.
func (s *State) EffectiveConsumer(st *Stage) *Stage {
	for {
		cons := s.ConsumerStages(st)
		if len(cons) != 1 {
			return nil
		}
		if !cons[0].Inlined {
			return cons[0]
		}
		st = cons[0]
	}
}

// Apply applies one step and records it in the rewriting history. Any
// memoized signature is dropped: the step changed the structure. (Steps
// that fail partway may also have mutated the state, so the memo is
// dropped on the error path too.)
func (s *State) Apply(step Step) error {
	s.sig.Store(nil)
	if err := step.Apply(s); err != nil {
		return err
	}
	s.Steps = append(s.Steps, step)
	return nil
}

// MustApply applies a step that is statically known to succeed.
func (s *State) MustApply(step Step) {
	if err := s.Apply(step); err != nil {
		panic(fmt.Sprintf("ir: %v", err))
	}
}

// Replay rebuilds a state from a DAG and a step list. This is the
// verification path used after mutation and crossover (§5.1): a step list
// that replays without error is a valid program.
func Replay(dag *te.DAG, steps []Step) (*State, error) {
	s := NewState(dag)
	for i, step := range steps {
		if err := s.Apply(step); err != nil {
			return nil, fmt.Errorf("ir: replay step %d (%s): %w", i, step.Name(), err)
		}
	}
	return s, nil
}

// Complete reports whether every stage of the state is complete (no
// unfilled tile sizes). Sketches are incomplete; sampled programs are
// complete (§4.2).
func (s *State) Complete() bool {
	for _, st := range s.Stages {
		if st.Inlined {
			continue
		}
		if !st.Complete() {
			return false
		}
	}
	return true
}

// Validate checks structural invariants of the state: per-stage, the
// product of filled tile extents of each axis equals the axis extent;
// attach targets exist and indices are in range. Axes are checked in
// ascending order, so the first reported error is deterministic.
func (s *State) Validate() error {
	// Scratch sized per stage from its atoms; the arrays keep the common
	// case off the heap, and larger stages simply grow the slices.
	var prodBuf [16]int
	var seenBuf [4]uint64
	for _, st := range s.Stages {
		if st.Inlined {
			continue
		}
		nAxes, nLevels := 0, 0
		for _, it := range st.Iters {
			for _, at := range it.Atoms {
				nAxes = max(nAxes, at.Axis+1)
				nLevels = max(nLevels, at.Level+1)
			}
		}
		// prod[a] is the product of axis a's atom extents; seen holds one
		// bit per (axis, level), row-major by axis.
		prod := prodBuf[:0]
		for a := 0; a < nAxes; a++ {
			prod = append(prod, 1)
		}
		seen := seenBuf[:0]
		for w := 0; w < (nAxes*nLevels+63)/64; w++ {
			seen = append(seen, 0)
		}
		// Each axis must be fully covered by its atoms.
		for _, it := range st.Iters {
			for _, at := range it.Atoms {
				bit := at.Axis*nLevels + at.Level
				if seen[bit/64]&(1<<(bit%64)) != 0 {
					return fmt.Errorf("stage %s: duplicate atom axis=%d level=%d", st.Name, at.Axis, at.Level)
				}
				seen[bit/64] |= 1 << (bit % 64)
				prod[at.Axis] = mulExt(prod[at.Axis], at.Extent)
			}
		}
		for a, p := range prod {
			if !anyBit(seen, a*nLevels, (a+1)*nLevels) {
				continue // no atom covers this axis
			}
			want := st.axisExtent(a)
			if st.Attached {
				// Attached stages have consumer-bounded extents;
				// covered extents must not exceed the axis extent.
				if p != Unfilled && p > want {
					return fmt.Errorf("stage %s: axis %d covers %d > extent %d", st.Name, a, p, want)
				}
				continue
			}
			if p != Unfilled && p != want {
				return fmt.Errorf("stage %s: axis %d covers %d, want %d", st.Name, a, p, want)
			}
		}
		if st.Attached {
			tgt := s.Stage(st.AttachTarget)
			if tgt == nil {
				return fmt.Errorf("stage %s: attach target %q missing", st.Name, st.AttachTarget)
			}
			if st.AttachIdx < 0 || st.AttachIdx >= len(tgt.Iters) {
				return fmt.Errorf("stage %s: attach index %d out of range for %s (%d iters)",
					st.Name, st.AttachIdx, tgt.Name, len(tgt.Iters))
			}
		}
	}
	return nil
}

// anyBit reports whether any of bits [lo, hi) of the bitset is set.
func anyBit(set []uint64, lo, hi int) bool {
	for b := lo; b < hi; b++ {
		if set[b/64]&(1<<(b%64)) != 0 {
			return true
		}
	}
	return false
}

// Signature returns a short stable string identifying the program
// structure, tile sizes, annotations, and constant-layout packing; used
// for deduplication in search. Two states with equal signatures lower to
// the same loop nest and memory layout, so §5.1's search-level dedupe is
// exact; the persistence layer still keys exact program identity on the
// (DAG fingerprint, step list) pair — see internal/measure — because the
// signature does not record how the program was derived.
//
// The string is memoized on the state: it is a pure function of the
// post-replay structure, and the search consults it on every dedupe
// map, feature-cache and best-pool touch of every candidate.
func (s *State) Signature() string { return s.memoSig().sig }

// FamilySignature identifies the program's structural family: the
// Signature with the constant-layout packing markers stripped. Near-twin
// variants that differ only in packing (§4.2's layout rewrite) share a
// family. Search uses it as a diversity key when cutting candidate
// lists: identity stays exact (Signature), but a measurement batch
// should not fill up with twins of one loop structure.
func (s *State) FamilySignature() string { return s.memoSig().fam }

// memoSig returns the cached signature pair, computing it on first use.
func (s *State) memoSig() *sigMemo {
	if m := s.sig.Load(); m != nil {
		return m
	}
	sig := s.buildSignature()
	m := &sigMemo{sig: sig, fam: strings.ReplaceAll(sig, "!pk", "")}
	s.sig.Store(m)
	return m
}

// buildSignature renders the signature string (see Signature).
func (s *State) buildSignature() string {
	var b strings.Builder
	for _, st := range s.Stages {
		if st.Inlined {
			fmt.Fprintf(&b, "%s:inl;", st.Name)
			continue
		}
		b.WriteString(st.Name)
		if st.PackedConst {
			// Constant-layout packing (§4.2) changes the measured memory
			// behaviour without changing the loop nest: omitting it
			// conflated two programs that measure differently (ROADMAP,
			// "coarse signature").
			b.WriteString("!pk")
		}
		b.WriteString("[")
		for _, it := range st.Iters {
			fmt.Fprintf(&b, "%d%s,", it.Extent, annShort(it.Ann))
		}
		if st.Attached {
			fmt.Fprintf(&b, "]@%s/%d;", st.AttachTarget, st.AttachIdx)
		} else {
			fmt.Fprintf(&b, "]u%d;", st.AutoUnrollMax)
		}
	}
	return b.String()
}

func annShort(a Annotation) string {
	switch a {
	case AnnParallel:
		return "p"
	case AnnVectorize:
		return "v"
	case AnnUnroll:
		return "u"
	default:
		return ""
	}
}
