package lp

import (
	"math"
	"testing"

	"repro/internal/numeric"
)

func solveBasisOK(t *testing.T, p *Problem) (*Solution, *Basis) {
	t.Helper()
	sol, bs, err := SolveBasis(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	if bs == nil {
		t.Fatal("optimal solve returned nil basis")
	}
	if bs.NumVars() != p.NumVars() || bs.NumRows() != p.NumConstraints() {
		t.Fatalf("basis shape %d/%d, want %d/%d", bs.NumVars(), bs.NumRows(), p.NumVars(), p.NumConstraints())
	}
	return sol, bs
}

func TestRevisedTextbookLP(t *testing.T) {
	// max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 -> 36 at (2, 6).
	p := NewProblem(2)
	p.SetObjCoef(0, 3)
	p.SetObjCoef(1, 5)
	p.AddConstraint([]Term{{0, 1}}, LE, 4)
	p.AddConstraint([]Term{{1, 2}}, LE, 12)
	p.AddConstraint([]Term{{0, 3}, {1, 2}}, LE, 18)
	sol, bs := solveBasisOK(t, p)
	if math.Abs(sol.Objective-36) > 1e-7 {
		t.Errorf("objective = %g, want 36", sol.Objective)
	}
	if math.Abs(sol.X[0]-2) > 1e-7 || math.Abs(sol.X[1]-6) > 1e-7 {
		t.Errorf("x = %v, want [2 6]", sol.X)
	}
	if bs.String() == "" {
		t.Error("empty basis string")
	}
}

func TestRevisedEqualityAndGE(t *testing.T) {
	// max x + y s.t. x + y == 5, x >= 2, y <= 2 -> obj 5.
	p := NewProblem(2)
	p.SetObjCoef(0, 1)
	p.SetObjCoef(1, 1)
	p.AddConstraint([]Term{{0, 1}, {1, 1}}, EQ, 5)
	p.AddConstraint([]Term{{0, 1}}, GE, 2)
	p.AddConstraint([]Term{{1, 1}}, LE, 2)
	sol, _ := solveBasisOK(t, p)
	if math.Abs(sol.Objective-5) > 1e-7 {
		t.Errorf("objective = %g, want 5", sol.Objective)
	}
	if sol.X[0] < 2-1e-7 {
		t.Errorf("x = %v violates x >= 2", sol.X)
	}
}

func TestRevisedNegativeRHS(t *testing.T) {
	// max x s.t. -x <= -3 (x >= 3), x <= 7 -> 7.
	p := NewProblem(1)
	p.SetObjCoef(0, 1)
	p.AddConstraint([]Term{{0, -1}}, LE, -3)
	p.AddConstraint([]Term{{0, 1}}, LE, 7)
	sol, _ := solveBasisOK(t, p)
	if math.Abs(sol.Objective-7) > 1e-7 {
		t.Errorf("objective = %g, want 7", sol.Objective)
	}
}

func TestRevisedInfeasible(t *testing.T) {
	p := NewProblem(1)
	p.SetObjCoef(0, 1)
	p.AddConstraint([]Term{{0, 1}}, GE, 5)
	p.AddConstraint([]Term{{0, 1}}, LE, 2)
	sol, bs, err := SolveBasis(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", sol.Status)
	}
	if bs != nil {
		t.Error("infeasible solve returned a basis")
	}
}

func TestRevisedUnbounded(t *testing.T) {
	p := NewProblem(2)
	p.SetObjCoef(0, 1)
	p.AddConstraint([]Term{{1, 1}}, LE, 3)
	sol, _, err := SolveBasis(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Unbounded {
		t.Errorf("status = %v, want unbounded", sol.Status)
	}
}

func TestRevisedMatchesTableau(t *testing.T) {
	// A problem exercising all three senses, with the optimum the dense
	// tableau core recorded for it: max 2x − y + 3z s.t. x + y + z <= 10,
	// x − z >= 1, y + 2z = 4 has its optimum 22 at (8, 0, 2) — y = 4 − 2z
	// leaves 2x + 5z − 4 to maximise under x <= 6 + z and z <= 2.
	p := NewProblem(3)
	p.SetObjCoef(0, 2)
	p.SetObjCoef(1, -1)
	p.SetObjCoef(2, 3)
	p.AddConstraint([]Term{{0, 1}, {1, 1}, {2, 1}}, LE, 10)
	p.AddConstraint([]Term{{0, 1}, {2, -1}}, GE, 1)
	p.AddConstraint([]Term{{1, 1}, {2, 2}}, EQ, 4)
	rev, _ := solveBasisOK(t, p)
	if !numeric.AlmostEqual(rev.Objective, 22) {
		t.Errorf("revised %.15g, tableau optimum 22", rev.Objective)
	}
}

// TestWarmStartAfterBoundRow is the core branch-and-bound use case: solve,
// append a tightening bound row, warm start from the parent basis.
func TestWarmStartAfterBoundRow(t *testing.T) {
	p := NewProblem(2)
	p.SetObjCoef(0, 3)
	p.SetObjCoef(1, 5)
	p.AddConstraint([]Term{{0, 1}}, LE, 4)
	p.AddConstraint([]Term{{1, 2}}, LE, 12)
	p.AddConstraint([]Term{{0, 3}, {1, 2}}, LE, 18)
	parent, bs := solveBasisOK(t, p)
	if parent.X[1] < 5.9 {
		t.Fatalf("unexpected parent solution %v", parent.X)
	}

	// Down-branch y <= 5: optimum moves to x = 8/3, obj = 33.
	down := p.Clone()
	down.AddConstraint([]Term{{1, 1}}, LE, 5)
	warm, wbs, err := SolveFrom(down, bs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != Optimal {
		t.Fatalf("warm status = %v", warm.Status)
	}
	if math.Abs(warm.Objective-33) > 1e-7 {
		t.Errorf("warm objective = %g, want 33", warm.Objective)
	}
	cold, err := Solve(down, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.Close(cold.Objective, warm.Objective, 1e-9) {
		t.Errorf("cold %.15g != warm %.15g", cold.Objective, warm.Objective)
	}
	if wbs == nil || wbs.NumRows() != 4 {
		t.Fatalf("warm basis %v", wbs)
	}

	// Chain a second tightening from the warm basis.
	deeper := down.Clone()
	deeper.AddConstraint([]Term{{0, 1}}, GE, 3)
	warm2, _, err := SolveFrom(deeper, wbs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cold2, err := Solve(deeper, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if warm2.Status != cold2.Status {
		t.Fatalf("status warm %v != cold %v", warm2.Status, cold2.Status)
	}
	if warm2.Status == Optimal && !numeric.Close(cold2.Objective, warm2.Objective, 1e-9) {
		t.Errorf("cold %.15g != warm %.15g", cold2.Objective, warm2.Objective)
	}
}

// TestWarmStartDetectsInfeasible: a bound row that empties the feasible
// region must be reported Infeasible by the dual phase.
func TestWarmStartDetectsInfeasible(t *testing.T) {
	p := NewProblem(1)
	p.SetObjCoef(0, 1)
	p.AddConstraint([]Term{{0, 1}}, LE, 4)
	_, bs := solveBasisOK(t, p)

	child := p.Clone()
	child.AddConstraint([]Term{{0, 1}}, GE, 5)
	warm, _, err := SolveFrom(child, bs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", warm.Status)
	}
}

func TestSolveFromRejectsMismatchedBasis(t *testing.T) {
	p := NewProblem(2)
	p.SetObjCoef(0, 1)
	p.AddConstraint([]Term{{0, 1}, {1, 1}}, LE, 3)
	_, bs := solveBasisOK(t, p)

	if _, _, err := SolveFrom(p, nil, Options{}); err == nil {
		t.Error("nil basis accepted")
	}
	q := NewProblem(1) // fewer variables than the basis snapshot
	q.SetObjCoef(0, 1)
	q.AddConstraint([]Term{{0, 1}}, LE, 1)
	if _, _, err := SolveFrom(q, bs, Options{}); err == nil {
		t.Error("basis with more variables than problem accepted")
	}
	r := NewProblem(2) // fewer rows than the basis
	r.SetObjCoef(0, 1)
	if _, _, err := SolveFrom(r, bs, Options{}); err == nil {
		t.Error("basis with more rows than problem accepted")
	}
}

// TestWarmStartEqualityAppended: SolveFrom also supports appended EQ rows
// (their fixed-at-zero logical starts basic and is driven out by the
// mirrored dual ratio test).
func TestWarmStartEqualityAppended(t *testing.T) {
	p := NewProblem(2)
	p.SetObjCoef(0, 3)
	p.SetObjCoef(1, 5)
	p.AddConstraint([]Term{{0, 1}}, LE, 4)
	p.AddConstraint([]Term{{1, 2}}, LE, 12)
	p.AddConstraint([]Term{{0, 3}, {1, 2}}, LE, 18)
	_, bs := solveBasisOK(t, p)

	child := p.Clone()
	child.AddConstraint([]Term{{0, 1}}, EQ, 1)
	warm, _, err := SolveFrom(child, bs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Solve(child, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != cold.Status {
		t.Fatalf("status warm %v != cold %v", warm.Status, cold.Status)
	}
	if !numeric.Close(warm.Objective, cold.Objective, 1e-9) {
		t.Errorf("warm %.15g != cold %.15g", warm.Objective, cold.Objective)
	}
}
