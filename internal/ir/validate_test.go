package ir

import (
	"math/rand"
	"strings"
	"testing"
)

// TestValidateFirstErrorDeterministic pins the reported error when
// several axes are mis-covered: axes are checked in ascending order, so
// the lowest one is named on every call.
func TestValidateFirstErrorDeterministic(t *testing.T) {
	s := NewState(matmulReLU(64, 64, 64))
	mm := s.Stages[0]
	for _, i := range []int{0, 2} {
		mm.Iters[i].Extent = 32
		mm.Iters[i].Atoms[0].Extent = 32
	}
	for call := 0; call < 100; call++ {
		err := s.Validate()
		if err == nil {
			t.Fatal("mis-covered axes 0 and 2 validated")
		}
		if !strings.Contains(err.Error(), "axis 0 covers 32") {
			t.Fatalf("call %d: %v, want the error for axis 0", call, err)
		}
	}
}

// TestValidateAgreesWithCoverageRule checks Validate against a direct
// statement of its rule on tiled programs with random corruptions: an
// error exactly when some (axis, level) repeats or some covered axis's
// filled extents do not multiply to its length.
func TestValidateAgreesWithCoverageRule(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	base := tileAndFuse(t, [][]int{{2, 4, 8}, {4, 4, 2}}, [][]int{{4}})
	errs := 0
	for trial := 0; trial < 300; trial++ {
		s := base.Clone()
		st := s.Stages[rng.Intn(len(s.Stages))]
		if trial%3 != 0 {
			it := st.Iters[rng.Intn(len(st.Iters))]
			at := &it.Atoms[rng.Intn(len(it.Atoms))]
			switch rng.Intn(3) {
			case 0:
				at.Extent *= 2
			case 1:
				at.Level = rng.Intn(4)
			case 2:
				at.Extent = Unfilled
			}
		}
		want := false
		for _, st := range s.Stages {
			if st.Inlined {
				continue
			}
			seen := map[[2]int]bool{}
			prod := map[int]int{}
			for _, it := range st.Iters {
				for _, at := range it.Atoms {
					k := [2]int{at.Axis, at.Level}
					want = want || seen[k]
					seen[k] = true
					if p, ok := prod[at.Axis]; ok {
						prod[at.Axis] = mulExt(p, at.Extent)
					} else {
						prod[at.Axis] = at.Extent
					}
				}
			}
			for a, p := range prod {
				ext := st.axisExtent(a)
				if p != Unfilled && (p > ext || (!st.Attached && p != ext)) {
					want = true
				}
			}
		}
		got := s.Validate() != nil
		if got != want {
			t.Fatalf("trial %d: Validate error = %v, coverage rule says %v", trial, s.Validate(), want)
		}
		if got {
			errs++
		}
	}
	if errs == 0 {
		t.Fatal("no corruption was detected: the trials exercise nothing")
	}
}
