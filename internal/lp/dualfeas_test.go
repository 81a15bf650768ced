package lp

// Tests for two small API pieces the branch-and-bound search relies on:
// the Problem.Constraint row accessor (rounding candidates are checked
// against rows through it) and the Solution.DualFeasible flag
// (strong-branching probes trust a truncated warm solve's objective as a
// bound only when it is set).

import (
	"math"
	"testing"
)

func TestConstraintAccessor(t *testing.T) {
	p := NewProblem(3)
	p.AddConstraint([]Term{{Var: 0, Coef: 2}, {Var: 2, Coef: -1}}, LE, 7)
	p.AddConstraint([]Term{{Var: 1, Coef: 1}}, GE, -3)
	p.AddConstraint([]Term{{Var: 0, Coef: 1}, {Var: 1, Coef: 1}, {Var: 2, Coef: 1}}, EQ, 1)

	terms, sense, rhs := p.Constraint(0)
	//lint:ignore floatcmp the accessor returns the stored literals verbatim; identity is exact
	if len(terms) != 2 || terms[0] != (Term{Var: 0, Coef: 2}) || sense != LE || rhs != 7 {
		t.Fatalf("Constraint(0) = %v %v %g", terms, sense, rhs)
	}
	//lint:ignore floatcmp the accessor returns the stored literals verbatim; identity is exact
	if terms[1] != (Term{Var: 2, Coef: -1}) {
		t.Fatalf("Constraint(0) terms[1] = %v", terms[1])
	}
	//lint:ignore floatcmp the accessor returns the stored literals verbatim; identity is exact
	if _, sense, rhs = p.Constraint(1); sense != GE || rhs != -3 {
		t.Fatalf("Constraint(1) sense %v rhs %g", sense, rhs)
	}
	if terms, _, _ = p.Constraint(2); len(terms) != 3 {
		t.Fatalf("Constraint(2) terms %v", terms)
	}

	for _, i := range []int{-1, 3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Constraint(%d) did not panic", i)
				}
			}()
			p.Constraint(i)
		}()
	}
}

// dualFeasProblem is a small LP with a non-trivial optimal vertex:
// max 3x + 2y s.t. x + y <= 4, x + 3y <= 6, 0 <= x,y <= 3.
func dualFeasProblem() *Problem {
	p := NewProblem(2)
	p.SetObjCoef(0, 3)
	p.SetObjCoef(1, 2)
	p.SetBounds(0, 0, 3)
	p.SetBounds(1, 0, 3)
	p.AddConstraint([]Term{{Var: 0, Coef: 1}, {Var: 1, Coef: 1}}, LE, 4)
	p.AddConstraint([]Term{{Var: 0, Coef: 1}, {Var: 1, Coef: 3}}, LE, 6)
	return p
}

func TestDualFeasibleFlag(t *testing.T) {
	p := dualFeasProblem()
	sol, basis, err := SolveBasis(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	if !sol.DualFeasible {
		t.Error("optimal cold solve not marked dual feasible")
	}
	opt := sol.Objective

	// Tighten a bound that cuts off the optimal vertex (x <= 1): the old
	// basis stays dual feasible, so a warm re-solve truncated after a
	// single dual pivot must still report DualFeasible — its objective is
	// a valid upper bound on the tightened problem.
	p.SetBounds(0, 0, 1)
	ws := NewWorkspace()
	truncated, err := ws.SolveFrom(p, basis, Options{MaxIters: 1})
	if err != nil {
		t.Fatal(err)
	}
	if truncated.Status == Optimal {
		t.Skip("re-solve finished within one pivot; no truncated case to assert")
	}
	if !truncated.DualFeasible {
		t.Fatalf("warm re-solve truncated in the dual phase (status %v) not marked dual feasible",
			truncated.Status)
	}
	exact, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if exact.Status != Optimal {
		t.Fatalf("tightened problem status %v", exact.Status)
	}
	if truncated.Objective < exact.Objective-1e-9 {
		t.Errorf("truncated dual-feasible objective %.12g below true optimum %.12g — not a valid bound",
			truncated.Objective, exact.Objective)
	}
	if exact.Objective > opt {
		t.Errorf("tightening raised the optimum: %g > %g", exact.Objective, opt)
	}

	// A cold solve stopped by an iteration cap sits mid primal phase:
	// its objective bounds nothing, so the flag must be off.
	capped, err := Solve(dualFeasProblem(), Options{MaxIters: 1})
	if err != nil {
		t.Fatal(err)
	}
	if capped.Status != Optimal && capped.DualFeasible {
		t.Errorf("iteration-capped cold solve (status %v) marked dual feasible", capped.Status)
	}
	if math.IsNaN(capped.Objective) {
		t.Error("iteration-capped solve returned NaN objective")
	}
}
