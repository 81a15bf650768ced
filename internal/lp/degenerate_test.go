package lp

import (
	"math"
	"testing"

	"repro/internal/numeric"
)

// Degenerate staircase instances: the EDF prefix structure of the paper's
// DSCT model with every deadline collapsed to the same value and fully tied
// objective coefficients. All prefix rows but the longest per machine are
// redundant, so almost every vertex is massively degenerate and Dantzig
// pricing stalls in long runs of zero-ratio pivots — the workload the
// anti-cycling fallback (Bland's rule after degenerateRunLimit degenerate
// pivots) exists for. These tests pin that the simplex core, over the dense
// and the sparse matrix, terminates at the known optimum.

// degenerateStaircaseLP builds the collapsed-deadline instance: variables
// x[j][r] (task j on machine r), per-machine EDF prefix rows
// Σ_{i<=j} x[i][r] <= 1 for every j (identical RHS, so only the full-length
// prefix binds), and per-task caps Σ_r x[j][r] <= 1, maximising Σ x. The
// optimum is min(nTasks, mMach): one unit of work per machine.
func degenerateStaircaseLP(nTasks, mMach int) *Problem {
	nv := nTasks * mMach
	p := NewProblem(nv)
	v := func(j, r int) int { return j*mMach + r }
	for x := 0; x < nv; x++ {
		p.SetObjCoef(x, 1)
	}
	for r := 0; r < mMach; r++ {
		for j := 0; j < nTasks; j++ {
			terms := make([]Term, 0, j+1)
			for i := 0; i <= j; i++ {
				terms = append(terms, Term{Var: v(i, r), Coef: 1})
			}
			p.AddConstraint(terms, LE, 1)
		}
	}
	for j := 0; j < nTasks; j++ {
		terms := make([]Term, 0, mMach)
		for r := 0; r < mMach; r++ {
			terms = append(terms, Term{Var: v(j, r), Coef: 1})
		}
		p.AddConstraint(terms, LE, 1)
	}
	return p
}

// revisedCoreConfigs enumerates the matrix representations the degenerate
// tests run the core over.
var revisedCoreConfigs = []struct {
	name string
	opts Options
}{
	{"dense", Options{Sparse: SparseOff}},
	{"sparse", Options{Sparse: SparseOn}},
}

func TestDegenerateStaircaseAntiCycling(t *testing.T) {
	for _, sz := range [][2]int{{30, 3}, {40, 3}, {60, 3}} {
		nTasks, mMach := sz[0], sz[1]
		p := degenerateStaircaseLP(nTasks, mMach)
		want := float64(mMach)
		for _, cfg := range revisedCoreConfigs {
			sol, _, err := SolveBasis(p, cfg.opts)
			if err != nil {
				t.Fatalf("%dx%d %s: %v", nTasks, mMach, cfg.name, err)
			}
			// The degenerate optimum is unique in objective but not in X, so
			// the check is on status and objective only.
			if sol.Status != Optimal {
				t.Fatalf("%dx%d %s: status %v", nTasks, mMach, cfg.name, sol.Status)
			}
			if math.Abs(sol.Objective-want) > 1e-9 {
				t.Fatalf("%dx%d %s: objective %g, want %g", nTasks, mMach, cfg.name, sol.Objective, want)
			}
		}
	}
}

// TestDegenerateStaircaseStallsDantzig checks, white-box, that the instance
// really exercises the anti-cycling machinery: over both representations
// the core must run through degenerateRunLimit consecutive zero-ratio
// pivots and flip to Bland's rule before terminating. Without this pin the
// optimum test above could silently degrade into a non-degenerate
// workload.
func TestDegenerateStaircaseStallsDantzig(t *testing.T) {
	p := degenerateStaircaseLP(30, 3)
	for _, cfg := range revisedCoreConfigs {
		tt, sol, _, err := solveBasisRev(p, cfg.opts)
		if err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
		if sol.Status != Optimal {
			t.Fatalf("%s: status %v", cfg.name, sol.Status)
		}
		if !tt.blandMode {
			t.Errorf("%s: Bland fallback never engaged — instance not degenerate enough", cfg.name)
		}
	}
}

// TestDegenerateStaircaseWarmStart re-solves degenerate children (one
// variable's upper bound tightened, branch-and-bound style) from the
// parent's basis over both representations and pins agreement with a cold
// solve of the same child.
func TestDegenerateStaircaseWarmStart(t *testing.T) {
	p := degenerateStaircaseLP(30, 3)
	for _, cfg := range revisedCoreConfigs {
		_, bs, err := SolveBasis(p, cfg.opts)
		if err != nil {
			t.Fatalf("%s parent: %v", cfg.name, err)
		}
		for _, v := range []int{0, 17, 44} {
			child := p.Overlay()
			child.SetBounds(v, 0, 0.25)
			warm, _, err := SolveFrom(child, bs, cfg.opts)
			if err != nil {
				t.Fatalf("%s child v=%d: %v", cfg.name, v, err)
			}
			cold, err := Solve(child, Options{})
			if err != nil {
				t.Fatalf("%s child v=%d cold: %v", cfg.name, v, err)
			}
			assertAgree(t, cfg.name, cold, warm)
			if warm.Status == Optimal && warm.X[v] > 0.25+numeric.TestTol {
				t.Fatalf("%s child v=%d: tightened bound violated: x=%g", cfg.name, v, warm.X[v])
			}
		}
	}
}
