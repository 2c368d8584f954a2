package ir

import (
	"fmt"

	"repro/internal/te"
)

// Lowering turns a complete State into a flat list of innermost statements,
// each carrying its enclosing loop path and, for every buffer access, the
// exact integer coefficient of every enclosing loop in every tensor
// dimension. This is all the information the analytic hardware model and
// the feature extractor need, and it is exact: tile strides, compute-at
// bound shrinking, fused-consumer nesting, inlining substitution and
// rfactor index rewriting all flow into the coefficients.

// LLoop is one loop of a lowered statement's enclosing path. Fused loops
// are expanded into one LLoop per atom (the iteration space is identical).
type LLoop struct {
	Owner  *Stage
	Name   string
	Extent int
	Kind   te.AxisKind
	Ann    Annotation
	// FusedWithPrev marks a loop that came from the same fused Iter as
	// the previous LLoop in the path.
	FusedWithPrev bool
}

// FlatAccess is one buffer access of a statement with per-loop stride
// coefficients: Coeff[d][j] is the step that one iteration of path loop j
// takes in dimension d of the tensor.
type FlatAccess struct {
	Tensor *te.Tensor
	Coeff  [][]int // [tensor dim][loop index]
}

// ElemStride returns the linearized element stride of path loop j
// (row-major layout).
func (a *FlatAccess) ElemStride(j int) int {
	stride := 0
	dimStride := 1
	for d := len(a.Tensor.Shape) - 1; d >= 0; d-- {
		stride += a.Coeff[d][j] * dimStride
		dimStride *= a.Tensor.Shape[d]
	}
	return stride
}

// Stmt is one lowered innermost statement.
type Stmt struct {
	Stage *Stage
	Loops []*LLoop // outer → inner
	Reads []*FlatAccess
	Write *FlatAccess
	Flops te.FlopCount
	// AutoUnrollMax is the stage's pragma value.
	AutoUnrollMax int
	// ZeroFrac is the fraction of iterations whose multiplications are
	// statically zero via inlined predicated producers (see
	// te.Node.ZeroFraction); a simulator may elide them when the inner
	// loops are unrolled.
	ZeroFrac float64
	// PackedConst mirrors Stage.PackedConst: constant-tensor reads use
	// the tile-matched (unit-stride) layout.
	PackedConst bool
}

// IterCount returns the total number of executions of the statement.
func (s *Stmt) IterCount() int64 {
	n := int64(1)
	for _, l := range s.Loops {
		n *= int64(l.Extent)
	}
	return n
}

// Lowered is the lowered form of a complete program.
type Lowered struct {
	State *State
	Stmts []*Stmt
}

// TotalFlops returns the total floating point work of the lowered program.
func (l *Lowered) TotalFlops() float64 {
	var f float64
	for _, s := range l.Stmts {
		f += float64(s.IterCount()) * s.Flops.Total()
	}
	return f
}

// Lower lowers a complete state. It returns an error for incomplete states
// (unfilled tile sizes) or structurally invalid ones.
func Lower(s *State) (*Lowered, error) {
	if !s.Complete() {
		return nil, fmt.Errorf("ir: cannot lower incomplete state")
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("ir: %w", err)
	}
	lw := &lowerer{state: s, attached: map[string][]*Stage{}}
	for _, st := range s.Stages {
		if st.Attached {
			lw.attached[st.AttachTarget] = append(lw.attached[st.AttachTarget], st)
		}
	}
	out := &Lowered{State: s}
	for _, st := range s.Stages {
		if st.Inlined || st.Attached {
			continue
		}
		if err := lw.emit(st, nil, map[*Stage][][]int{}); err != nil {
			return nil, err
		}
	}
	out.Stmts = lw.stmts
	return out, nil
}

type lowerer struct {
	state    *State
	attached map[string][]*Stage
	stmts    []*Stmt
}

// emit recursively emits the statement(s) of one stage. chains maps each
// ancestor stage to the matrix CM[stage axis][ancestor axis] giving the
// dependence of this stage's axis values on the ancestor's loop variables.
func (lw *lowerer) emit(st *Stage, path []*LLoop, chains map[*Stage][][]int) error {
	for idx, it := range st.Iters {
		for ai, at := range it.Atoms {
			path = append(path, &LLoop{
				Owner:         st,
				Name:          it.Name,
				Extent:        at.Extent,
				Kind:          it.Kind,
				Ann:           it.Ann,
				FusedWithPrev: ai > 0,
			})
		}
		for _, child := range lw.attached[st.Name] {
			if child.AttachIdx != idx || child.Inlined {
				continue
			}
			childChains, err := lw.extendChains(st, child, chains)
			if err != nil {
				return err
			}
			if err := lw.emit(child, path, childChains); err != nil {
				return err
			}
		}
	}
	return lw.emitLeaf(st, path, chains)
}

// extendChains computes the chain matrices for a child attached in parent.
func (lw *lowerer) extendChains(parent, child *Stage, chains map[*Stage][][]int) (map[*Stage][][]int, error) {
	m0, err := lw.fullAccessMatrix(parent, child)
	if err != nil {
		return nil, err
	}
	out := map[*Stage][][]int{parent: m0}
	for anc, cm := range chains {
		out[anc] = matMul(m0, cm)
	}
	return out, nil
}

// fullAccessMatrix returns M[child axis][parent axis]: how the child's
// axis values move when the parent's loop variables move. Only the child's
// space axes (its output dims) are driven by the parent; reduce rows are
// zero. The parent's reads are expanded through inlined stages so fusion
// across an inlined chain (conv → bn(inlined) → relu) resolves correctly.
func (lw *lowerer) fullAccessMatrix(parent, child *Stage) ([][]int, error) {
	reads, _, _ := lw.state.effectiveReads(parent, map[string]bool{})
	var acc *te.Access
	for i := range reads {
		if reads[i].Tensor == child.Node.Out {
			acc = &reads[i]
			break
		}
	}
	if acc == nil {
		return nil, fmt.Errorf("ir: attach target %q does not read %q", parent.Name, child.Name)
	}
	nChild := child.Node.NumAxes()
	nParent := parent.Node.NumAxes()
	nSpace := len(child.Node.SpaceAxes)
	m := make([][]int, nChild)
	for i := range m {
		m[i] = make([]int, nParent)
	}
	for pa := 0; pa < nSpace && pa < len(acc.Index); pa++ {
		for ca := 0; ca < nParent; ca++ {
			m[pa][ca] = acc.Index[pa].CoeffOf(ca)
		}
	}
	return m, nil
}

func matMul(a, b [][]int) [][]int {
	rows, inner := len(a), len(b)
	var cols int
	if inner > 0 {
		cols = len(b[0])
	}
	out := make([][]int, rows)
	for i := range out {
		out[i] = make([]int, cols)
		for k := 0; k < inner && k < len(a[i]); k++ {
			if a[i][k] == 0 {
				continue
			}
			for j := 0; j < cols; j++ {
				out[i][j] += a[i][k] * b[k][j]
			}
		}
	}
	return out
}

// emitLeaf builds the Stmt for a stage, expanding inlined producers.
func (lw *lowerer) emitLeaf(st *Stage, path []*LLoop, chains map[*Stage][][]int) error {
	reads, extra, zf := lw.effectiveReads(st, map[string]bool{})
	flops := addFlops(extra, st.Node.Flops)

	stmt := &Stmt{
		Stage:         st,
		Loops:         append([]*LLoop(nil), path...),
		Flops:         flops,
		AutoUnrollMax: st.AutoUnrollMax,
		ZeroFrac:      zf,
		PackedConst:   st.PackedConst,
	}
	for _, acc := range reads {
		fa, err := lw.flatten(st, acc, stmt.Loops, chains)
		if err != nil {
			return err
		}
		stmt.Reads = append(stmt.Reads, fa)
	}
	// Output write: identity over space axes.
	nS := len(st.Node.SpaceAxes)
	wIdx := make([]te.LinExpr, nS)
	for i := range wIdx {
		wIdx[i] = te.Var(i)
	}
	w, err := lw.flatten(st, te.Access{Tensor: st.Node.Out, Index: wIdx}, stmt.Loops, chains)
	if err != nil {
		return err
	}
	stmt.Write = w
	lw.stmts = append(lw.stmts, stmt)
	return nil
}

// effectiveReads is State.EffectiveReads; kept as a method of the lowerer
// for symmetry with the emit path.
func (lw *lowerer) effectiveReads(st *Stage, visiting map[string]bool) ([]te.Access, te.FlopCount, float64) {
	return lw.state.effectiveReads(st, visiting)
}

func addFlops(a, b te.FlopCount) te.FlopCount {
	return te.FlopCount{
		AddF: a.AddF + b.AddF, SubF: a.SubF + b.SubF,
		MulF: a.MulF + b.MulF, DivF: a.DivF + b.DivF,
		MaxF: a.MaxF + b.MaxF, CmpF: a.CmpF + b.CmpF,
		MathF: a.MathF + b.MathF, IntOps: a.IntOps + b.IntOps,
	}
}

// composeAccess substitutes the producer's axes in access `inner` with the
// consumer's index expressions `via` (the consumer's read of the producer),
// yielding an access in the consumer's axis space.
func composeAccess(inner te.Access, via te.Access) te.Access {
	ix := make([]te.LinExpr, len(inner.Index))
	for d, e := range inner.Index {
		out := te.LinExpr{Const: e.Const}
		for _, t := range e.Terms {
			if t.Axis < len(via.Index) {
				sub := via.Index[t.Axis]
				for _, s2 := range sub.Terms {
					out.Terms = append(out.Terms, te.Term{Axis: s2.Axis, Coeff: s2.Coeff * t.Coeff})
				}
				out.Const += sub.Const * t.Coeff
			}
		}
		ix[d] = out
	}
	return te.Access{Tensor: inner.Tensor, Index: ix}
}

// flatten computes the per-loop stride coefficients of one access.
func (lw *lowerer) flatten(st *Stage, acc te.Access, loops []*LLoop, chains map[*Stage][][]int) (*FlatAccess, error) {
	nAxes := st.Node.NumAxes()
	fa := &FlatAccess{Tensor: acc.Tensor, Coeff: make([][]int, len(acc.Index))}
	for d := range acc.Index {
		fa.Coeff[d] = make([]int, len(loops))
	}
	atomIdx := make([]int, len(loops)) // local axis of each loop's atom
	// Recover each loop's atom: walk owner iters in the same expansion
	// order used by emit.
	lj := 0
	// Loops appear grouped by owner along the path; map by scanning.
	ownerPos := map[*Stage]int{}
	for lj < len(loops) {
		l := loops[lj]
		// nth atom of this owner encountered so far
		pos := ownerPos[l.Owner]
		ax, lev := atomAt(l.Owner, pos)
		ownerPos[l.Owner] = pos + 1
		atomIdx[lj] = ax<<8 | lev
		lj++
	}
	for j, l := range loops {
		ax := atomIdx[j] >> 8
		lev := atomIdx[j] & 0xff
		stride := l.Owner.strideOf(ax, lev)
		for d := range acc.Index {
			var c int
			if l.Owner == st {
				c = acc.Index[d].CoeffOf(ax)
			} else {
				cm, ok := chains[l.Owner]
				if !ok {
					return nil, fmt.Errorf("ir: no chain from %q to %q", st.Name, l.Owner.Name)
				}
				for sa := 0; sa < nAxes && sa < len(cm); sa++ {
					if co := acc.Index[d].CoeffOf(sa); co != 0 {
						c += co * cm[sa][ax]
					}
				}
			}
			fa.Coeff[d][j] = c * stride
		}
	}
	return fa, nil
}

// atomAt returns the (axis, level) of the pos-th atom of the stage's iters
// in expansion order.
func atomAt(st *Stage, pos int) (axis, level int) {
	i := 0
	for _, it := range st.Iters {
		for _, at := range it.Atoms {
			if i == pos {
				return at.Axis, at.Level
			}
			i++
		}
	}
	return 0, 0
}
