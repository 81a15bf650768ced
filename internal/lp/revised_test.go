package lp

import (
	"errors"
	"math"
	"testing"

	"repro/internal/numeric"
	"repro/internal/rng"
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

// TestPricingIncrementalMatchesDense drives two primal phases step by
// step on a staircase LP, under objectives that cost one column in five or
// two in five, as the fractional relaxation's LP costs only its accuracy
// columns, so y stays sparse and the passes after each phase's first
// price incrementally. The second phase starts from the first's optimum
// and charges the first's costed columns, which sit in its basis, so they
// leave it. After every pass d must equal the dense pass's reduced costs
// bit for bit, and the entering column must be the one the ascending scan
// over every column picks, under Dantzig's rule and, every third
// iteration, Bland's.
func TestPricingIncrementalMatchesDense(t *testing.T) {
	g := generateStaircaseLP(rng.New(36, "lp-pricing-incremental"), 150, 5)
	tr := newRev(g.p, Options{})
	cols := make([]int, tr.m)
	for i := range cols {
		if tr.q[i] < 0 {
			t.Fatalf("row %d starts infeasible; the slack basis is not a primal start", i)
		}
		cols[i] = tr.n + i
	}
	tr.setBasis(cols)
	if err := tr.refactorize(); err != nil {
		t.Fatal(err)
	}
	tr.freezeArtificials()
	first := make([]float64, tr.width)
	second := make([]float64, tr.width)
	for v := 0; v < tr.n; v++ {
		switch v % 5 {
		case 0:
			first[v] = g.obj[v]
			second[v] = -g.obj[v]
		case 1:
			second[v] = g.obj[v]
		}
	}
	for phase, c := range [][]float64{first, second} {
		pivots, incremental, left := pricePhaseAgainstDense(t, tr, c)
		if pivots < 50 || incremental < 20 || (phase == 1 && left == 0) {
			t.Fatalf("phase %d: %d pivots, %d incremental passes, %d costed columns left the basis: the incremental pass goes unexercised",
				phase, pivots, incremental, left)
		}
	}
}

// pricePhaseAgainstDense runs one primal phase of tr under cost vector c
// as rev.primal does, checking every pricing pass and entering choice
// against the dense pass and the ascending scan. It returns the pivots,
// the incremental passes and the pivots whose leaving column is costed.
func pricePhaseAgainstDense(t *testing.T, tr *rev, c []float64) (pivots, incremental, left int) {
	t.Helper()
	tr.dAll = true
	tr.costedOK = false
	ref := make([]float64, tr.rw)
	for it := 0; ; it++ {
		if it > 20*tr.m {
			t.Fatal("no optimum after 20·m iterations")
		}
		tr.blandMode = it%3 == 2
		tr.prices(c, true)
		if !tr.dAll {
			incremental++
		}
		copy(ref, c[:tr.rw])
		for i := 0; i < tr.m; i++ {
			yi := tr.y[i]
			if yi == 0 {
				continue
			}
			for k := tr.sp.rowPtr[i]; k < tr.sp.rowPtr[i+1]; k++ {
				ref[tr.sp.colIdx[k]] -= yi * tr.sp.rowVal[k]
			}
			ref[tr.n+i] -= yi
		}
		for _, col := range tr.basis {
			if col < tr.rw {
				ref[col] = 0
			}
		}
		for j := range ref {
			if math.Float64bits(tr.d[j]) != math.Float64bits(ref[j]) {
				t.Fatalf("iteration %d: d[%d] = %v, dense pass %v", it, j, tr.d[j], ref[j])
			}
		}
		want := -1
		best := tol
		for j := 0; j < tr.rw; j++ {
			if !tr.eligible(j) {
				continue
			}
			score := tr.d[j]
			if tr.atUpper[j] {
				score = -score
			}
			if tr.blandMode && score > tol {
				want = j
				break
			}
			if !tr.blandMode && score > best {
				best, want = score, j
			}
		}
		pc := tr.entering(c)
		if pc != want {
			t.Fatalf("iteration %d (Bland %v): entering %d, ascending scan %d", it, tr.blandMode, pc, want)
		}
		if pc == -1 {
			return pivots, incremental, left
		}
		sigma := 1.0
		if tr.atUpper[pc] {
			sigma = -1
		}
		tr.ftran(pc)
		pr, up, ratio := tr.primalRatio(pc, sigma)
		if pr == -1 {
			if math.IsInf(ratio, 1) {
				t.Fatalf("iteration %d: unbounded", it)
			}
			tr.flipCol(pc, sigma)
			continue
		}
		leave := tr.basis[pr]
		if err := tr.pivotBounded(pr, pc, up); err != nil && !errors.Is(err, errNumerical) {
			t.Fatal(err)
		}
		pivots++
		if leave < tr.rw && c[leave] != 0 {
			left++
		}
	}
}
