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
// pivots) exists for. These tests pin that the simplex core terminates at
// the known optimum.

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

func TestDegenerateStaircaseAntiCycling(t *testing.T) {
	for _, sz := range [][2]int{{30, 3}, {40, 3}, {60, 3}} {
		nTasks, mMach := sz[0], sz[1]
		p := degenerateStaircaseLP(nTasks, mMach)
		want := float64(mMach)
		sol, _, err := SolveBasis(p, Options{})
		if err != nil {
			t.Fatalf("%dx%d: %v", nTasks, mMach, err)
		}
		// The degenerate optimum is unique in objective but not in X, so
		// the check is on status and objective only.
		if sol.Status != Optimal {
			t.Fatalf("%dx%d: status %v", nTasks, mMach, sol.Status)
		}
		if math.Abs(sol.Objective-want) > 1e-9 {
			t.Fatalf("%dx%d: objective %g, want %g", nTasks, mMach, sol.Objective, want)
		}
	}
}

// TestPresolveDegenerateStaircase: on the massively degenerate staircase
// the duals must certify as well as the objective. (The id dates from the
// project's former presolve layer, whose singleton reductions this
// instance once exercised.)
func TestPresolveDegenerateStaircase(t *testing.T) {
	p := degenerateStaircaseLP(30, 3)
	want := 3.0
	sol, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || math.Abs(sol.Objective-want) > 1e-9 {
		t.Fatalf("status %v objective %g, want Optimal %g", sol.Status, sol.Objective, want)
	}
	ds, err := SolveWithDuals(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Status != Optimal {
		t.Fatalf("duals: status %v", ds.Status)
	}
	if err := Certify(p, ds.X, ds.Duals, 1e-6); err != nil {
		t.Fatalf("degenerate certificate: %v", err)
	}
}

// TestDegenerateStaircaseStallsDantzig checks, white-box, that the instance
// really exercises the anti-cycling machinery: the core must run through
// degenerateRunLimit consecutive zero-ratio pivots and flip to Bland's rule
// before terminating. Without this pin the optimum test above could
// silently degrade into a non-degenerate workload.
func TestDegenerateStaircaseStallsDantzig(t *testing.T) {
	p := degenerateStaircaseLP(30, 3)
	tt, sol, _, err := solveBasisRev(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	if !tt.blandMode {
		t.Error("Bland fallback never engaged — instance not degenerate enough")
	}
}

// TestDegenerateStaircaseWarmStart re-solves degenerate children (one
// variable's upper bound tightened, branch-and-bound style) from the
// parent's basis and pins agreement with a cold solve of the same child.
func TestDegenerateStaircaseWarmStart(t *testing.T) {
	p := degenerateStaircaseLP(30, 3)
	_, bs, err := SolveBasis(p, Options{})
	if err != nil {
		t.Fatalf("parent: %v", err)
	}
	for _, v := range []int{0, 17, 44} {
		child := p.Overlay()
		child.SetBounds(v, 0, 0.25)
		warm, _, err := SolveFrom(child, bs, Options{})
		if err != nil {
			t.Fatalf("child v=%d: %v", v, err)
		}
		cold, err := Solve(child, Options{})
		if err != nil {
			t.Fatalf("child v=%d cold: %v", v, err)
		}
		assertAgree(t, "warm", cold, warm)
		if warm.Status == Optimal && warm.X[v] > 0.25+numeric.TestTol {
			t.Fatalf("child v=%d: tightened bound violated: x=%g", v, warm.X[v])
		}
	}
}
