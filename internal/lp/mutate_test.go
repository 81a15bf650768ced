package lp

import (
	"math"
	"testing"

	"repro/internal/numeric"
)

// mutBase builds the shared fixture for the mutation tests:
// max 3x0 + 5x1 + 4x2
//
//	r0: x0 + x1 + x2 <= 10
//	r1: 2x0 + x1     <= 8
//	r2: x1 + 3x2     <= 12
func mutBase() *Problem {
	p := NewProblem(3)
	p.SetObjCoef(0, 3)
	p.SetObjCoef(1, 5)
	p.SetObjCoef(2, 4)
	p.AddConstraint([]Term{{0, 1}, {1, 1}, {2, 1}}, LE, 10)
	p.AddConstraint([]Term{{0, 2}, {1, 1}}, LE, 8)
	p.AddConstraint([]Term{{1, 1}, {2, 3}}, LE, 12)
	return p
}

// sameOptimum asserts two solutions agree on objective and X.
func sameOptimum(t *testing.T, got, want *Solution, label string) {
	t.Helper()
	if got.Status != Optimal || want.Status != Optimal {
		t.Fatalf("%s: status got %v, want %v (both optimal)", label, got.Status, want.Status)
	}
	if !numeric.Close(got.Objective, want.Objective, 1e-9) {
		t.Errorf("%s: objective %g, want %g", label, got.Objective, want.Objective)
	}
	if len(got.X) < len(want.X) {
		t.Fatalf("%s: got %d vars, want at least %d", label, len(got.X), len(want.X))
	}
	for v := range want.X {
		if !numeric.Close(got.X[v], want.X[v], 1e-8) {
			t.Errorf("%s: x[%d] = %g, want %g", label, v, got.X[v], want.X[v])
		}
	}
}

// SetRHS on a live problem must be indistinguishable from rebuilding the
// problem from scratch with the new right-hand side.
func TestSetRHSEquivalence(t *testing.T) {
	p := mutBase()
	p.SetRHS(1, 5)
	p.SetRHS(2, 20)

	q := NewProblem(3)
	q.SetObjCoef(0, 3)
	q.SetObjCoef(1, 5)
	q.SetObjCoef(2, 4)
	q.AddConstraint([]Term{{0, 1}, {1, 1}, {2, 1}}, LE, 10)
	q.AddConstraint([]Term{{0, 2}, {1, 1}}, LE, 5)
	q.AddConstraint([]Term{{1, 1}, {2, 3}}, LE, 20)

	sameOptimum(t, solveOK(t, p), solveOK(t, q), "SetRHS")

	terms, sense, rhs := p.Constraint(1)
	//lint:ignore floatcmp SetRHS stores the literal verbatim; round-trip identity is the contract
	if rhs != 5 || sense != LE || len(terms) != 2 {
		t.Errorf("Constraint(1) = (%v, %v, %g) after SetRHS", terms, sense, rhs)
	}
}

// AppendTerms must accumulate coefficients exactly as a from-scratch build
// would, including repeated variables.
func TestAppendTermsEquivalence(t *testing.T) {
	p := mutBase()
	p.AppendTerms(0, []Term{{0, 2}})          // r0: 3x0 + x1 + x2 <= 10
	p.AppendTerms(2, []Term{{0, 1}, {2, -1}}) // r2: x0 + x1 + 2x2 <= 12
	p.AppendTerms(1, nil)                     // no-op

	q := NewProblem(3)
	q.SetObjCoef(0, 3)
	q.SetObjCoef(1, 5)
	q.SetObjCoef(2, 4)
	q.AddConstraint([]Term{{0, 3}, {1, 1}, {2, 1}}, LE, 10)
	q.AddConstraint([]Term{{0, 2}, {1, 1}}, LE, 8)
	q.AddConstraint([]Term{{0, 1}, {1, 1}, {2, 2}}, LE, 12)

	sameOptimum(t, solveOK(t, p), solveOK(t, q), "AppendTerms")
}

// AddVariables grows the problem; new columns priced into old rows via
// AppendTerms plus fresh rows must match the equivalent from-scratch build.
func TestAddVariablesEquivalence(t *testing.T) {
	p := mutBase()
	first := p.AddVariables(2)
	if first != 3 {
		t.Fatalf("AddVariables returned first=%d, want 3", first)
	}
	if p.NumVars() != 5 {
		t.Fatalf("NumVars = %d, want 5", p.NumVars())
	}
	p.SetObjCoef(3, 6)
	p.SetObjCoef(4, 1)
	p.SetBounds(4, 0, 2)
	p.AppendTerms(0, []Term{{3, 1}, {4, 1}})
	p.AddConstraint([]Term{{3, 2}, {4, 1}}, LE, 6)

	q := NewProblem(5)
	q.SetObjCoef(0, 3)
	q.SetObjCoef(1, 5)
	q.SetObjCoef(2, 4)
	q.SetObjCoef(3, 6)
	q.SetObjCoef(4, 1)
	q.SetBounds(4, 0, 2)
	q.AddConstraint([]Term{{0, 1}, {1, 1}, {2, 1}, {3, 1}, {4, 1}}, LE, 10)
	q.AddConstraint([]Term{{0, 2}, {1, 1}}, LE, 8)
	q.AddConstraint([]Term{{1, 1}, {2, 3}}, LE, 12)
	q.AddConstraint([]Term{{3, 2}, {4, 1}}, LE, 6)

	sameOptimum(t, solveOK(t, p), solveOK(t, q), "AddVariables")
}

// Deactivate must be equivalent to removing the variable from the model.
func TestDeactivateEquivalence(t *testing.T) {
	p := mutBase()
	p.Deactivate(1)

	q := NewProblem(2) // the model without x1, reindexed
	q.SetObjCoef(0, 3)
	q.SetObjCoef(1, 4)
	q.AddConstraint([]Term{{0, 1}, {1, 1}}, LE, 10)
	q.AddConstraint([]Term{{0, 2}}, LE, 8)
	q.AddConstraint([]Term{{1, 3}}, LE, 12)

	got, want := solveOK(t, p), solveOK(t, q)
	if !numeric.Close(got.Objective, want.Objective, 1e-9) {
		t.Errorf("objective %g, want %g", got.Objective, want.Objective)
	}
	if got.X[1] != 0 {
		t.Errorf("deactivated x1 = %g, want 0", got.X[1])
	}
}

// A basis snapshot taken before each kind of mutation must warm-start the
// mutated problem to the same optimum a cold solve finds.
func TestWarmStartAfterMutation(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(p *Problem)
	}{
		{"SetRHS", func(p *Problem) { p.SetRHS(1, 5) }},
		{"Deactivate", func(p *Problem) { p.Deactivate(1) }},
		{"AppendTerms", func(p *Problem) { p.AppendTerms(0, []Term{{2, 1}}) }},
		{"AddVariables", func(p *Problem) {
			v := p.AddVariables(1)
			p.SetObjCoef(v, 7)
			p.AppendTerms(0, []Term{{v, 1}})
			p.AddConstraint([]Term{{v, 1}}, LE, 3)
		}},
		{"NewRow", func(p *Problem) { p.AddConstraint([]Term{{0, 1}, {2, 1}}, LE, 4) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := mutBase()
			_, basis, err := SolveBasis(p, Options{})
			if err != nil {
				t.Fatal(err)
			}
			tc.mutate(p)
			warm, _, err := SolveFrom(p, basis, Options{})
			if err != nil {
				t.Fatal(err)
			}
			cold := solveOK(t, p.Clone())
			sameOptimum(t, warm, cold, "warm vs cold")
		})
	}
}

// Mutating a problem must never change what a previously derived problem
// (an overlay, or the overlay's parent) sees: copy-on-write discipline.
func TestMutationPreservesOverlayIsolation(t *testing.T) {
	parent := mutBase()
	parentCold := solveOK(t, parent.Clone())

	child := parent.Overlay()
	child.AddConstraint([]Term{{0, 1}}, LE, 2)
	childCold := solveOK(t, child.Clone())

	// Mutating the overlay child must not disturb the parent.
	child.SetRHS(0, 1)
	child.AppendTerms(1, []Term{{2, 5}})
	child.Deactivate(2)
	child.AddVariables(1)
	sameOptimum(t, solveOK(t, parent), parentCold, "parent after child mutation")

	// And mutating the parent (no overlay of it alive anymore — the child
	// materialised its own storage above) must not disturb a second,
	// already-materialised derived problem.
	child2 := parent.Overlay()
	child2.SetRHS(0, 9) // forces child2 to own its rows
	child2Cold := solveOK(t, child2.Clone())
	parent.SetRHS(0, 3)
	parent.AppendTerms(2, []Term{{0, 1}})
	sameOptimum(t, solveOK(t, child2), child2Cold, "materialised sibling after parent mutation")
	_ = childCold
}

// Mutator panics on bad input.
func TestMutatePanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		f    func(p *Problem)
	}{
		{"SetRHS out of range", func(p *Problem) { p.SetRHS(3, 1) }},
		{"SetRHS negative row", func(p *Problem) { p.SetRHS(-1, 1) }},
		{"SetRHS NaN", func(p *Problem) { p.SetRHS(0, math.NaN()) }},
		{"AppendTerms out of range", func(p *Problem) { p.AppendTerms(7, []Term{{0, 1}}) }},
		{"AppendTerms bad var", func(p *Problem) { p.AppendTerms(0, []Term{{9, 1}}) }},
		{"AddVariables zero", func(p *Problem) { p.AddVariables(0) }},
		{"AddVariables negative", func(p *Problem) { p.AddVariables(-2) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			tc.f(mutBase())
		})
	}
}
