package lp

// Shared random-LP generator for the fuzz and differential test suites.
// Instances are feasible by construction — a known point x* >= 0 satisfies
// every row because each RHS is A_i·x* plus a non-negative slack — and
// bounded by construction thanks to per-variable box constraints, so a
// correct solver must report Optimal with objective >= c·x*.

import "repro/internal/rng"

// genRow is one generated constraint, kept in dense form so tests can
// re-check feasibility of solver output against the original data.
type genRow struct {
	coefs []float64
	rhs   float64
}

// genLP is a generated instance with its certificates.
type genLP struct {
	p     *Problem
	rows  []genRow
	xstar []float64 // known feasible point
	obj   []float64
	// lo/hi mirror the instance's variable boxes when the generator
	// declared them through SetBounds (nil: default [0, +inf) boxes
	// emitted as explicit rows). Tests use them to re-check box
	// feasibility of solver output against the original data.
	lo, hi []float64
}

// generateFeasibleLP builds a random feasible, bounded LP over n variables
// with m random LE rows plus n box rows, all satisfied at a random x*.
func generateFeasibleLP(s *rng.Source, n, m int) *genLP {
	g := &genLP{xstar: make([]float64, n), obj: make([]float64, n)}
	for v := range g.xstar {
		g.xstar[v] = s.Uniform(0, 5)
	}

	g.p = NewProblem(n)
	for v := range g.obj {
		g.obj[v] = s.Uniform(-1, 2)
		g.p.SetObjCoef(v, g.obj[v])
	}

	addRow := func(coefs []float64, rhs float64) {
		terms := make([]Term, 0, len(coefs))
		for v, c := range coefs {
			if c != 0 {
				terms = append(terms, Term{Var: v, Coef: c})
			}
		}
		g.p.AddConstraint(terms, LE, rhs)
		g.rows = append(g.rows, genRow{coefs: coefs, rhs: rhs})
	}

	// Random LE rows, feasible at x* with non-negative slack.
	for i := 0; i < m; i++ {
		coefs := make([]float64, n)
		dot := 0.0
		for v := range coefs {
			if s.Float64() < 0.3 {
				continue // keep some sparsity
			}
			coefs[v] = s.Uniform(-2, 3)
			dot += coefs[v] * g.xstar[v]
		}
		addRow(coefs, dot+s.Uniform(0, 2))
	}
	// Box constraints keep the maximisation bounded; each box contains x*.
	for v := 0; v < n; v++ {
		coefs := make([]float64, n)
		coefs[v] = 1
		addRow(coefs, g.xstar[v]+s.Uniform(0.1, 5))
	}
	return g
}

// generateBoundedLP builds a random feasible, bounded LP over n variables
// with m random LE rows and a finite box lo <= x <= hi on every variable
// declared through SetBounds instead of rows. About half the lower bounds
// are strictly positive, every upper bound is finite (which keeps the
// maximisation bounded with no box rows at all), and roughly 15% of the
// variables are fixed (lo == hi) — the degenerate box branch-and-bound
// produces when it pins a binary. The known point x* lies inside every box
// and satisfies every row with slack, so a correct solver must report
// Optimal with objective >= c·x*, and expandBounds can rewrite the
// instance into the equivalent all-rows form (all lower bounds are >= 0).
func generateBoundedLP(s *rng.Source, n, m int) *genLP {
	g := &genLP{
		xstar: make([]float64, n),
		obj:   make([]float64, n),
		lo:    make([]float64, n),
		hi:    make([]float64, n),
	}
	g.p = NewProblem(n)
	for v := 0; v < n; v++ {
		g.obj[v] = s.Uniform(-1, 2)
		g.p.SetObjCoef(v, g.obj[v])
		if s.Float64() < 0.15 {
			// Fixed variable: a zero-width box.
			g.xstar[v] = s.Uniform(0, 3)
			g.lo[v] = g.xstar[v]
			g.hi[v] = g.xstar[v]
		} else {
			g.xstar[v] = s.Uniform(0, 5)
			if s.Float64() < 0.5 {
				g.lo[v] = s.Uniform(0, g.xstar[v])
			}
			g.hi[v] = g.xstar[v] + s.Uniform(0.1, 5)
		}
		g.p.SetBounds(v, g.lo[v], g.hi[v])
	}

	// Random LE rows, feasible at x* with non-negative slack.
	for i := 0; i < m; i++ {
		coefs := make([]float64, n)
		dot := 0.0
		for v := range coefs {
			if s.Float64() < 0.3 {
				continue // keep some sparsity
			}
			coefs[v] = s.Uniform(-2, 3)
			dot += coefs[v] * g.xstar[v]
		}
		rhs := dot + s.Uniform(0, 2)
		terms := make([]Term, 0, n)
		for v, c := range coefs {
			if c != 0 {
				terms = append(terms, Term{Var: v, Coef: c})
			}
		}
		g.p.AddConstraint(terms, LE, rhs)
		g.rows = append(g.rows, genRow{coefs: coefs, rhs: rhs})
	}
	return g
}

// feasibleValue returns c·x*, a lower bound on the optimum.
func (g *genLP) feasibleValue() float64 {
	var want float64
	for v := range g.obj {
		want += g.obj[v] * g.xstar[v]
	}
	return want
}

// generateStaircaseLP builds a DSCT-EA-FR-shaped instance: nTasks·mMach
// processing-time variables t_jr with positive accuracy-slope objectives,
// per-machine EDF deadline staircases Σ_{i<=j} t_ir <= d_j, per-task work
// caps Σ_r s_r·t_jr <= fmax_j, and one global energy row — the structure
// whose ~1/m nonzero density motivates the sparse representation. The
// origin is feasible (every RHS is positive) and the staircases bound
// every variable, so a correct solver must report Optimal with a
// non-negative objective.
func generateStaircaseLP(s *rng.Source, nTasks, mMach int) *genLP {
	nv := nTasks * mMach
	g := &genLP{xstar: make([]float64, nv), obj: make([]float64, nv)}
	g.p = NewProblem(nv)

	speed := make([]float64, mMach)
	power := make([]float64, mMach)
	for r := range speed {
		speed[r] = s.Uniform(0.5, 2)
		power[r] = s.Uniform(0.2, 1)
	}
	deadline := make([]float64, nTasks)
	d := 0.0
	for j := range deadline {
		d += s.Uniform(0.1, 1)
		deadline[j] = d
	}

	// Objective: accuracy slope per unit time on machine r.
	for j := 0; j < nTasks; j++ {
		for r := 0; r < mMach; r++ {
			g.obj[j*mMach+r] = s.Uniform(0.1, 1) * speed[r]
			g.p.SetObjCoef(j*mMach+r, g.obj[j*mMach+r])
		}
	}
	// Deadline staircases, one per (machine, task-prefix).
	for r := 0; r < mMach; r++ {
		for j := 0; j < nTasks; j++ {
			terms := make([]Term, 0, j+1)
			for i := 0; i <= j; i++ {
				terms = append(terms, Term{Var: i*mMach + r, Coef: 1})
			}
			g.p.AddConstraint(terms, LE, deadline[j])
		}
	}
	// Per-task work caps.
	for j := 0; j < nTasks; j++ {
		terms := make([]Term, mMach)
		for r := 0; r < mMach; r++ {
			terms[r] = Term{Var: j*mMach + r, Coef: speed[r]}
		}
		g.p.AddConstraint(terms, LE, s.Uniform(0.5, 3))
	}
	// Global energy budget.
	eterms := make([]Term, nv)
	for j := 0; j < nTasks; j++ {
		for r := 0; r < mMach; r++ {
			eterms[j*mMach+r] = Term{Var: j*mMach + r, Coef: power[r]}
		}
	}
	g.p.AddConstraint(eterms, LE, 0.3*deadline[nTasks-1]*float64(mMach))
	return g
}
