package lp

import (
	"math"
	"testing"

	"repro/internal/numeric"
	"repro/internal/rng"
)

// dedupRows flattens p into fresh sparseRows storage.
func dedupRows(p *Problem) *sparseRows {
	var ds dedupScratch
	return ds.flatten(p, &sparseRows{})
}

// TestDedupRows: the shared flattener must accumulate repeated Terms, sort
// columns within a row, and drop exact cancellations.
func TestDedupRows(t *testing.T) {
	p := NewProblem(4)
	p.AddConstraint([]Term{{Var: 3, Coef: 2}, {Var: 1, Coef: 1}, {Var: 3, Coef: 0.5}}, LE, 7)
	p.AddConstraint([]Term{{Var: 2, Coef: 1}, {Var: 2, Coef: -1}, {Var: 0, Coef: 4}}, GE, -1)
	p.AddConstraint(nil, EQ, 0)

	sr := dedupRows(p)
	if got := len(sr.idx); got != 3 {
		t.Fatalf("nnz = %d, want 3 (duplicates merged, cancellation dropped)", got)
	}
	cols, vals := sr.row(0)
	//lint:ignore floatcmp dedup sums exact binary fractions (1, 2+0.5); bit-exactness is the contract
	if len(cols) != 2 || cols[0] != 1 || cols[1] != 3 || vals[0] != 1 || vals[1] != 2.5 {
		t.Errorf("row 0 = %v %v, want [1 3] [1 2.5]", cols, vals)
	}
	cols, vals = sr.row(1)
	//lint:ignore floatcmp value copied verbatim from the input Term; identity is exact
	if len(cols) != 1 || cols[0] != 0 || vals[0] != 4 {
		t.Errorf("row 1 = %v %v, want [0] [4]", cols, vals)
	}
	if cols, _ := sr.row(2); len(cols) != 0 {
		t.Errorf("row 2 nonzeros = %v, want empty", cols)
	}
	//lint:ignore floatcmp rhs copied verbatim from AddConstraint; identity is exact
	if sr.sense[1] != GE || sr.rhs[1] != -1 {
		t.Errorf("row 1 sense/rhs = %v/%g, want >=/-1", sr.sense[1], sr.rhs[1])
	}
}

// TestCSMatrixViewsAgree: the CSR and CSC views must index identical
// values.
func TestCSMatrixViewsAgree(t *testing.T) {
	s := rng.New(11, "lp-csmatrix")
	g := generateFeasibleLP(s, 6, 9)
	sr := dedupRows(g.p)
	sp := newCSMatrix(g.p.NumConstraints(), g.p.NumVars(), sr.ptr, sr.idx, sr.val)

	dense := make([]float64, sp.m*sp.n)
	for i := 0; i < sp.m; i++ {
		cols, vals := sr.row(i)
		for k, v := range cols {
			dense[i*sp.n+v] = vals[k]
		}
	}
	for j := 0; j < sp.n; j++ {
		for k := sp.colPtr[j]; k < sp.colPtr[j+1]; k++ {
			//lint:ignore floatcmp the transpose copies values bit-for-bit; identity is exact
			if got, want := sp.colVal[k], dense[sp.rowIdx[k]*sp.n+j]; got != want {
				t.Fatalf("CSC (%d,%d) = %g, dense %g", sp.rowIdx[k], j, got, want)
			}
		}
	}
}

// solveBasisNoErr runs SolveBasis, failing only on an error (any status
// passes).
func solveBasisNoErr(t *testing.T, p *Problem) (*Solution, *Basis) {
	t.Helper()
	sol, bs, err := SolveBasis(p, Options{})
	if err != nil {
		t.Fatalf("SolveBasis: %v", err)
	}
	return sol, bs
}

// assertSameSolution checks status, objective and the full solution vector
// within the repo-wide assertion tolerance.
func assertSameSolution(t *testing.T, label string, a, b *Solution) {
	t.Helper()
	if a.Status != b.Status {
		t.Fatalf("%s: status %v != %v", label, a.Status, b.Status)
	}
	if a.Status != Optimal {
		return
	}
	if !numeric.AlmostEqual(a.Objective, b.Objective) {
		t.Fatalf("%s: objective %.17g != %.17g", label, a.Objective, b.Objective)
	}
	for v := range a.X {
		if !numeric.AlmostEqual(a.X[v], b.X[v]) {
			t.Fatalf("%s: x[%d] %.17g != %.17g", label, v, a.X[v], b.X[v])
		}
	}
}

// TestSparseMatchesDenseBasics: on small problems covering every sense,
// negative RHS, infeasibility and unboundedness, the sparse core must
// reproduce the answers the retired dense matrix gave — the known optima.
func TestSparseMatchesDenseBasics(t *testing.T) {
	build := func() []*Problem {
		textbook := NewProblem(2)
		textbook.SetObjCoef(0, 3)
		textbook.SetObjCoef(1, 5)
		textbook.AddConstraint([]Term{{0, 1}}, LE, 4)
		textbook.AddConstraint([]Term{{1, 2}}, LE, 12)
		textbook.AddConstraint([]Term{{0, 3}, {1, 2}}, LE, 18)

		mixed := NewProblem(3)
		mixed.SetObjCoef(0, 2)
		mixed.SetObjCoef(1, -1)
		mixed.SetObjCoef(2, 3)
		mixed.AddConstraint([]Term{{0, 1}, {1, 1}, {2, 1}}, LE, 10)
		mixed.AddConstraint([]Term{{0, 1}, {2, -1}}, GE, 1)
		mixed.AddConstraint([]Term{{1, 1}, {2, 2}}, EQ, 4)

		negRHS := NewProblem(1)
		negRHS.SetObjCoef(0, 1)
		negRHS.AddConstraint([]Term{{0, -1}}, LE, -3)
		negRHS.AddConstraint([]Term{{0, 1}}, LE, 7)

		infeasible := NewProblem(1)
		infeasible.SetObjCoef(0, 1)
		infeasible.AddConstraint([]Term{{0, 1}}, GE, 5)
		infeasible.AddConstraint([]Term{{0, 1}}, LE, 2)

		unbounded := NewProblem(2)
		unbounded.SetObjCoef(0, 1)
		unbounded.AddConstraint([]Term{{1, 1}}, LE, 3)

		return []*Problem{textbook, mixed, negRHS, infeasible, unbounded}
	}
	want := []struct {
		name string
		sol  Solution
	}{
		{"textbook", Solution{Status: Optimal, Objective: 36, X: []float64{2, 6}}},
		{"mixed-senses", Solution{Status: Optimal, Objective: 22, X: []float64{8, 0, 2}}},
		{"negative-rhs", Solution{Status: Optimal, Objective: 7, X: []float64{7}}},
		{"infeasible", Solution{Status: Infeasible}},
		{"unbounded", Solution{Status: Unbounded}},
	}
	for i, p := range build() {
		got, _ := solveBasisNoErr(t, p)
		assertSameSolution(t, want[i].name, &want[i].sol, got)
	}
}

// TestSparseWarmStart: the warm-start pipeline (basis export, O(m²)
// inverse inheritance, dual repair) must work identically under the sparse
// representation, including chained bound rows.
func TestSparseWarmStart(t *testing.T) {
	p := NewProblem(2)
	p.SetObjCoef(0, 3)
	p.SetObjCoef(1, 5)
	p.AddConstraint([]Term{{0, 1}}, LE, 4)
	p.AddConstraint([]Term{{1, 2}}, LE, 12)
	p.AddConstraint([]Term{{0, 3}, {1, 2}}, LE, 18)
	_, bs := solveBasisNoErr(t, p)

	child := p.Clone()
	child.AddConstraint([]Term{{1, 1}}, LE, 5)
	warm, wbs, err := SolveFrom(child, bs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != Optimal || math.Abs(warm.Objective-33) > 1e-7 {
		t.Fatalf("warm = %v/%g, want optimal/33", warm.Status, warm.Objective)
	}

	deeper := child.Clone()
	deeper.AddConstraint([]Term{{0, 1}}, GE, 3)
	warm2, _, err := SolveFrom(deeper, wbs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cold2, _ := solveBasisNoErr(t, deeper)
	assertSameSolution(t, "chained", cold2, warm2)
}

// TestSparseLargeStaircase: a DSCT-shaped instance (deadline staircase per
// machine plus a coupling energy row); Solve and SolveBasis must agree, and
// the optimum must beat the generator's feasible point.
func TestSparseLargeStaircase(t *testing.T) {
	g := generateStaircaseLP(rng.New(5, "lp-staircase-test"), 40, 3)
	def, err := Solve(g.p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if def.Status != Optimal {
		t.Fatalf("default status %v", def.Status)
	}
	sol, _ := solveBasisNoErr(t, g.p)
	assertSameSolution(t, "Solve-vs-SolveBasis", def, sol)
	want := g.feasibleValue()
	if sol.Objective < want-1e-6*(1+math.Abs(want)) {
		t.Errorf("objective %g below feasible value %g", sol.Objective, want)
	}
}

// TestAddConstraintAccumulatesDuplicates: AddConstraint documents that
// repeated variables accumulate. Assert the promise by comparing a
// duplicated-Term problem against its hand-merged twin.
func TestAddConstraintAccumulatesDuplicates(t *testing.T) {
	dup := NewProblem(3)
	merged := NewProblem(3)
	for v, c := range []float64{1, 2, 0.5} {
		dup.SetObjCoef(v, c)
		merged.SetObjCoef(v, c)
	}
	// 3x0 + 2x1 <= 12, written with x0 split into three pieces and a
	// cancelling x2 pair.
	dup.AddConstraint([]Term{
		{Var: 0, Coef: 1}, {Var: 1, Coef: 2}, {Var: 0, Coef: 1.5},
		{Var: 2, Coef: 4}, {Var: 0, Coef: 0.5}, {Var: 2, Coef: -4},
	}, LE, 12)
	merged.AddConstraint([]Term{{Var: 0, Coef: 3}, {Var: 1, Coef: 2}}, LE, 12)
	// x1 + x2 >= 2 with duplicated x2.
	dup.AddConstraint([]Term{{Var: 1, Coef: 0.25}, {Var: 2, Coef: 1}, {Var: 1, Coef: 0.75}}, GE, 2)
	merged.AddConstraint([]Term{{Var: 1, Coef: 1}, {Var: 2, Coef: 1}}, GE, 2)
	// Boxes to keep the maximisation bounded.
	for v := 0; v < 3; v++ {
		dup.AddConstraint([]Term{{Var: v, Coef: 0.5}, {Var: v, Coef: 0.5}}, LE, 5)
		merged.AddConstraint([]Term{{Var: v, Coef: 1}}, LE, 5)
	}

	gotDup, _ := solveBasisNoErr(t, dup)
	gotMerged, _ := solveBasisNoErr(t, merged)
	assertSameSolution(t, "dup-vs-merged", gotMerged, gotDup)
}

// TestDefaultMaxIters pins the documented pivot-budget default,
// 100·(rows+cols)+1000.
func TestDefaultMaxIters(t *testing.T) {
	p := NewProblem(7)
	for i := 0; i < 5; i++ {
		p.AddConstraint([]Term{{Var: i, Coef: 1}}, LE, 1)
	}
	want := 100*(5+7) + 1000
	if got := newRev(p, Options{}).iterLimit; got != want {
		t.Errorf("default MaxIters = %d, want %d", got, want)
	}
	if got := newRev(p, Options{MaxIters: 17}).iterLimit; got != 17 {
		t.Errorf("explicit MaxIters = %d, want 17", got)
	}
}
