package lp

// Dual values and optimality certificates. At an optimal basis one BTRAN
// of the phase-2 basic costs against the LU factors prices the duals
// y = cᵦᵀB⁻¹ in the stored (oriented, equilibrated) row frame; undoing
// each row's scale and orientation sign maps them back to the caller's
// rows. SolveWithDuals and SolveBasisWithDuals expose them, and Certify
// re-verifies a claimed optimum from first principles (feasibility + dual
// feasibility + matching objectives) — an oracle sharing no code with the
// simplex, which the test suite holds every corpus optimum to.

import (
	"fmt"
	"math"
)

// DualSolution augments a Solution with constraint duals and variable
// reduced costs.
type DualSolution struct {
	Solution
	// Duals[i] is the shadow price of constraint i: the rate of change of
	// the optimal objective per unit of slack added to the RHS. For a
	// maximisation with a·x <= b rows, duals are >= 0; for >= rows, <= 0.
	Duals []float64
	// ReducedCosts[v] is c_v − yᵀA_v for structural variable v. At an
	// optimum of this maximisation it is <= 0 for a variable resting at
	// its lower bound, >= 0 for one at its (finite) upper bound —
	// complementary slackness against the bound's own multiplier — and 0
	// for basic variables strictly inside their box.
	ReducedCosts []float64
}

// SolveWithDuals solves p and extracts the dual values of the optimal
// basis: SolveBasisWithDuals without the warm-start token. Only Optimal
// results carry duals. Under the presolve layer the reduced problem is
// solved and postsolve recovers the original duals: surviving rows unscale
// theirs, eliminated rows get zero except singleton rows, whose dual is
// reconstructed from the residual reduced cost of their column
// (presolve.go), so the result still passes Certify against the original
// problem.
func SolveWithDuals(p *Problem, opts Options) (*DualSolution, error) {
	ds, _, err := SolveBasisWithDuals(p, opts)
	return ds, err
}

// SolveBasisWithDuals solves p and extracts the dual values of the optimal
// basis directly from the factorisation: one BTRAN of the phase-2 basic
// costs yields y = cᵦᵀB⁻¹ in the stored (oriented, equilibrated) row
// frame, and undoing each row's scale and orientation sign maps it back to
// the caller's rows.
// Reduced costs come from the same pricing pass (columns are never
// rescaled, so no undo is needed). Like SolveBasis it also returns the
// optimal basis as a warm-start token. Only Optimal results carry duals.
// Presolve is handled as described at SolveWithDuals, with the basis
// restored to the original problem like SolveBasis does.
func SolveBasisWithDuals(p *Problem, opts Options) (*DualSolution, *Basis, error) {
	if ps := presolveFor(p, opts, true); ps != nil {
		if ps.status == Infeasible {
			return &DualSolution{Solution: Solution{Status: Infeasible}}, nil, nil
		}
		if ps.reduced == nil {
			return ps.directDualSolution(), ps.restoreBasis(nil), nil
		}
		opts.Presolve = PresolveOff
		ds, bs, err := solveBasisDuals(ps.reduced, opts)
		if err != nil {
			return nil, nil, err
		}
		return ps.mapDualSolution(ds), ps.restoreBasis(bs), nil
	}
	return solveBasisDuals(p, opts)
}

// solveBasisDuals is the presolve-free revised solve-with-duals.
func solveBasisDuals(p *Problem, opts Options) (*DualSolution, *Basis, error) {
	t, sol, bs, err := solveBasisRev(p, opts)
	if err != nil {
		return nil, nil, err
	}
	ds := &DualSolution{Solution: *sol}
	if sol.Status != Optimal {
		return ds, bs, nil
	}
	cost := make([]float64, t.width)
	copy(cost, p.obj)
	t.prices(cost)
	ds.Duals = make([]float64, t.m)
	for i := 0; i < t.m; i++ {
		ds.Duals[i] = t.y[i] * t.rowNeg[i] / t.rowScale[i]
	}
	ds.ReducedCosts = append([]float64(nil), t.d[:t.n]...)
	return ds, bs, nil
}

// Certify checks an optimality certificate for an all-finite (x, y) pair:
// primal feasibility of x (rows and variable boxes), sign-correct dual
// feasibility of y, sign-correct structural reduced costs against each
// variable's resting bound, and strong duality within tol. The dual
// objective of the boxed program is yᵀb plus the bound multipliers'
// contribution Σ_v [red_v]⁺·hi_v + [red_v]⁻·lo_v (a positive reduced cost
// must be priced by the upper bound's multiplier, a negative one by the
// lower bound's); with the default [0, +inf) boxes this reduces to the
// classic yᵀb and a positive reduced cost is outright infeasible. It
// returns nil when the certificate proves optimality.
func Certify(p *Problem, x, y []float64, tol float64) error {
	if len(x) != p.nVars || len(y) != p.NumConstraints() {
		return fmt.Errorf("lp: certificate dimensions mismatch")
	}
	// Primal feasibility: variable boxes...
	for v, xv := range x {
		lo, hi := p.boundsAt(v)
		if xv < lo-tol*scaleOf(lo) {
			return fmt.Errorf("lp: x[%d] = %g below lower bound %g", v, xv, lo)
		}
		if xv > hi+tol*scaleOf(hi) {
			return fmt.Errorf("lp: x[%d] = %g above upper bound %g", v, xv, hi)
		}
	}
	// ...and constraint rows.
	for i := 0; i < p.NumConstraints(); i++ {
		r := p.rowAt(i)
		var lhs float64
		for _, tm := range r.terms {
			lhs += tm.Coef * x[tm.Var]
		}
		switch r.sense {
		case LE:
			if lhs > r.rhs+tol*scaleOf(r.rhs) {
				return fmt.Errorf("lp: row %d violated: %g > %g", i, lhs, r.rhs)
			}
		case GE:
			if lhs < r.rhs-tol*scaleOf(r.rhs) {
				return fmt.Errorf("lp: row %d violated: %g < %g", i, lhs, r.rhs)
			}
		case EQ:
			if math.Abs(lhs-r.rhs) > tol*scaleOf(r.rhs) {
				return fmt.Errorf("lp: row %d violated: %g != %g", i, lhs, r.rhs)
			}
		}
	}
	// Dual sign feasibility.
	for i := 0; i < p.NumConstraints(); i++ {
		r := p.rowAt(i)
		switch r.sense {
		case LE:
			if y[i] < -tol {
				return fmt.Errorf("lp: dual %d = %g negative for <= row", i, y[i])
			}
		case GE:
			if y[i] > tol {
				return fmt.Errorf("lp: dual %d = %g positive for >= row", i, y[i])
			}
		}
	}
	// Reduced costs c_v − yᵀA_v: a positive residue is only admissible
	// when the upper bound is finite (its multiplier absorbs it); a
	// negative residue is always absorbable by the (finite) lower bound's
	// multiplier. Significant residues contribute to the dual objective
	// through the bound they are priced against.
	var boundDual float64
	colSum := make([]float64, p.nVars)
	colScale := make([]float64, p.nVars)
	for i := 0; i < p.NumConstraints(); i++ {
		r := p.rowAt(i)
		for _, tm := range r.terms {
			colSum[tm.Var] += y[i] * tm.Coef
			colScale[tm.Var] += math.Abs(y[i] * tm.Coef)
		}
	}
	for v := range colSum {
		red := p.obj[v] - colSum[v]
		lo, hi := p.boundsAt(v)
		switch {
		case red > tol*math.Max(1, colScale[v]):
			if math.IsInf(hi, 1) {
				return fmt.Errorf("lp: reduced cost of x[%d] = %g positive with no upper bound", v, red)
			}
			boundDual += red * hi
		case red < -tol*math.Max(1, colScale[v]):
			boundDual += red * lo
		}
	}
	// Strong duality.
	var primal, dual float64
	for v, c := range p.obj {
		primal += c * x[v]
	}
	for i := 0; i < p.NumConstraints(); i++ {
		dual += y[i] * p.rowAt(i).rhs
	}
	dual += boundDual
	if math.Abs(primal-dual) > tol*math.Max(1, math.Abs(primal)) {
		return fmt.Errorf("lp: duality gap %g (primal %g, dual %g)", primal-dual, primal, dual)
	}
	return nil
}

func scaleOf(x float64) float64 {
	if math.IsInf(x, 0) {
		return 1
	}
	return math.Max(1, math.Abs(x))
}
