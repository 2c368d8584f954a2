package evo

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ir"
	"repro/internal/sim"
	"repro/internal/te"
)

func conv2dDAG() *te.DAG {
	b := te.NewBuilder("conv2d")
	x := b.Input("X", 1, 64, 28, 28)
	b.Conv2D(x, te.ConvOpts{OutChannels: 64, Kernel: 3, Pad: 1})
	return b.MustFinish()
}

// sameSteps compares step lists by value. %+v prints a nil and an empty
// factor list alike, so a clone compares equal to its original.
func sameSteps(a, b []ir.Step) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if fmt.Sprintf("%+v", a[i]) != fmt.Sprintf("%+v", b[i]) {
			return false
		}
	}
	return true
}

// TestNoOpShortcutIsExact pins the premise of returning the parent for a
// no-op child: whenever an operator reports "unchanged", its steps equal
// the parent's and replay to the parent's signature; whenever it reports
// "changed", the steps really differ. An operator that misreports fails
// here rather than silently changing the search.
func TestNoOpShortcutIsExact(t *testing.T) {
	ops := []struct {
		name string
		fn   func([]ir.Step, *rand.Rand) (bool, bool)
	}{
		{"tile-size", mutateTileSize},
		{"annotation", mutateAnnotation},
		{"parallel-granularity", mutateParallelGranularity},
		{"compute-location", mutateComputeLocation},
		{"pragma", mutatePragma},
	}
	attempts := 1000
	if testing.Short() {
		attempts = 250
	}
	dags := []struct {
		name string
		dag  *te.DAG
	}{
		{"matmul-relu", matmulReLU(512, 512, 512)},
		{"conv2d", conv2dDAG()},
	}
	for di, dc := range dags {
		pop := initPop(t, dc.dag, 16, int64(31+di))
		for oi, op := range ops {
			noop, changed := 0, 0
			for i := 0; i < attempts; i++ {
				parent := pop[i%len(pop)]
				rng := rand.New(rand.NewSource(attemptSeed(int64(di), oi, i)))
				steps := cloneStepsInto(nil, parent.Steps)
				ok, ch := op.fn(steps, rng)
				switch {
				case !ok:
				case ch:
					changed++
					if sameSteps(steps, parent.Steps) {
						t.Fatalf("%s/%s attempt %d: reported changed, steps equal the parent's", dc.name, op.name, i)
					}
				default:
					noop++
					if !sameSteps(steps, parent.Steps) {
						t.Fatalf("%s/%s attempt %d: reported unchanged, steps differ from the parent's", dc.name, op.name, i)
					}
					r, err := ir.Replay(dc.dag, steps)
					if err != nil {
						t.Fatalf("%s/%s attempt %d: unchanged steps do not replay: %v", dc.name, op.name, i, err)
					}
					if r.Signature() != parent.Signature() {
						t.Fatalf("%s/%s attempt %d: unchanged steps replay to another program", dc.name, op.name, i)
					}
				}
			}
			t.Logf("%s/%s: %d changed, %d unchanged of %d", dc.name, op.name, changed, noop, attempts)
		}

		// Crossover: a child taking no step from the second parent is
		// the first parent.
		m := sim.IntelXeon()
		noop := 0
		for i := 0; i < attempts; i++ {
			a, b := pop[i%len(pop)], pop[(i*7+3)%len(pop)]
			rng := rand.New(rand.NewSource(attemptSeed(int64(di), 99, i)))
			steps, fromB := crossSteps(nil, a, b, oracleScorer{m}, rng)
			if fromB {
				continue
			}
			noop++
			if !sameSteps(steps, a.Steps) {
				t.Fatalf("%s/crossover attempt %d: no step from b, steps differ from a's", dc.name, i)
			}
			r, err := ir.Replay(dc.dag, steps)
			if err != nil || r.Signature() != a.Signature() {
				t.Fatalf("%s/crossover attempt %d: no step from b, replay is not a (err %v)", dc.name, i, err)
			}
		}
		if noop == 0 {
			t.Errorf("%s/crossover: no attempt took every step from a", dc.name)
		}
	}
}
