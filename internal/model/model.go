// Package model translates DSCT-EA problem instances into the solver
// representations of packages lp and mip:
//
//   - BuildMIP emits the paper's Mixed-Integer Program (formulation
//     (1a)–(1g) with the piecewise-linear objective linearised through the
//     epigraph variables z_j of §3.2) — the "DSCT-EA-Opt" exact baseline.
//   - BuildFR emits the fractional relaxation DSCT-EA-FR as a pure LP
//     (formulation (3a)–(3f)) — the paper's "DSCT-EA-FR [Mosek]" column in
//     Table 1.
//
// Both builders return models that can map solver vectors back into
// schedule.Schedule values.
package model

import (
	"math"

	"repro/internal/core"
	"repro/internal/lp"
	"repro/internal/mip"
	"repro/internal/schedule"
	"repro/internal/task"
)

// MIPModel is the DSCT-EA mixed-integer program for one instance.
type MIPModel struct {
	Inst *task.Instance
	Prob *mip.Problem
	n, m int
}

// TVar returns the variable index of t_jr (processing time of task j on
// machine r, seconds).
//
//lint:hotpath index arithmetic called inside every row-builder loop
func (mm *MIPModel) TVar(j, r int) int { return j*mm.m + r }

// XVar returns the variable index of the binary x_jr (task j assigned to
// machine r).
//
//lint:hotpath index arithmetic called inside every row-builder loop
func (mm *MIPModel) XVar(j, r int) int { return mm.n*mm.m + j*mm.m + r }

// ZVar returns the variable index of the epigraph variable z_j
// (z_j <= a_j(f_j) at the optimum, z_j = a_j(f_j)).
//
//lint:hotpath index arithmetic called inside every row-builder loop
func (mm *MIPModel) ZVar(j int) int { return 2*mm.n*mm.m + j }

// BuildMIP constructs the paper's MIP for the instance. Variables:
// t_jr (n·m), x_jr (n·m, binary), z_j (n). Objective: maximize Σ_j z_j,
// which equals n minus the paper's minimisation objective (1a).
func BuildMIP(in *task.Instance) *MIPModel {
	n, m := in.N(), in.M()
	mm := &MIPModel{Inst: in, n: n, m: m}
	p := lp.NewProblem(2*n*m + n)

	for j := 0; j < n; j++ {
		p.SetObjCoef(mm.ZVar(j), 1)
	}

	for j, tk := range in.Tasks {
		// (3b): z_j <= α_jk · Σ_r s_r t_jr + b_jk for every segment k.
		for _, seg := range tk.Acc.Segments() {
			terms := []lp.Term{{Var: mm.ZVar(j), Coef: 1}}
			for r, mc := range in.Machines {
				terms = append(terms, lp.Term{Var: mm.TVar(j, r), Coef: -seg.Slope * mc.Speed})
			}
			p.AddConstraint(terms, lp.LE, seg.Intercept)
		}
		// z_j <= a_max (redundant at integral points; keeps the relaxation's
		// epigraph bounded where fractional x lets f_j exceed f_j^max).
		// Single-variable cap: a box bound, not a constraint row.
		p.SetBounds(mm.ZVar(j), 0, tk.Acc.AMax())

		// (1c), per machine as printed: t_jr·s_r <= f_j^max. One variable
		// per row, so it is the box 0 <= t_jr <= f_j^max/s_r.
		for r, mc := range in.Machines {
			p.SetBounds(mm.TVar(j, r), 0, tk.FMax()/mc.Speed)
		}
		// Aggregate work cap Σ_r s_r·t_jr <= f_j^max — valid for every
		// integral solution (only one machine is used) and strengthens the
		// LP relaxation, where (1c) alone would allow up to m·f_j^max.
		aggTerms := make([]lp.Term, 0, m)
		for r, mc := range in.Machines {
			aggTerms = append(aggTerms, lp.Term{Var: mm.TVar(j, r), Coef: mc.Speed})
		}
		p.AddConstraint(aggTerms, lp.LE, tk.FMax())

		// (1d): t_jr <= x_jr · d_j, as printed. The box cap f_j^max/s_r is
		// often tighter than d_j; writing the link at min(d_j, f_j^max/s_r),
		// as internal/incremental does, moves the search trees and is a
		// separate, measured change (DESIGN §4).
		for r := 0; r < m; r++ {
			p.AddConstraint([]lp.Term{
				{Var: mm.TVar(j, r), Coef: 1},
				{Var: mm.XVar(j, r), Coef: -tk.Deadline},
			}, lp.LE, 0)
		}
		// (1e): Σ_r x_jr = 1 — the one-machine-per-task GUB row.
		xTerms := make([]lp.Term, 0, m)
		for r := 0; r < m; r++ {
			xTerms = append(xTerms, lp.Term{Var: mm.XVar(j, r), Coef: 1})
		}
		p.AddConstraint(xTerms, lp.EQ, 1)
	}

	// (1b): deadline staircases Σ_{i<=j} t_ir <= d_j for every (j, r).
	for r := 0; r < m; r++ {
		for j, tk := range in.Tasks {
			terms := make([]lp.Term, 0, j+1)
			for i := 0; i <= j; i++ {
				terms = append(terms, lp.Term{Var: mm.TVar(i, r), Coef: 1})
			}
			p.AddConstraint(terms, lp.LE, tk.Deadline)
		}
	}

	// (1f): energy budget Σ_{j,r} P_r·t_jr <= B.
	eTerms := make([]lp.Term, 0, n*m)
	for j := 0; j < n; j++ {
		for r, mc := range in.Machines {
			eTerms = append(eTerms, lp.Term{Var: mm.TVar(j, r), Coef: mc.Power})
		}
	}
	p.AddConstraint(eTerms, lp.LE, in.Budget)

	ints := make([]int, 0, n*m)
	for j := 0; j < n; j++ {
		for r := 0; r < m; r++ {
			ints = append(ints, mm.XVar(j, r))
		}
	}
	mm.Prob = &mip.Problem{LP: p, Integers: ints}
	return mm
}

// Schedule builds the schedule of x's assignment: each task goes to its
// largest-x machine, and core.FixedAssignment rebuilds the times exactly
// for that assignment, with exact zeros off the assigned machine and the
// energy within the budget by construction. Its accuracy is the
// assignment's optimum, so for an integral x it is at least the objective,
// up to the LP tolerances x met its rows with.
func (mm *MIPModel) Schedule(x []float64) *schedule.Schedule {
	assign, t := mm.exact(x)
	s := schedule.New(mm.n, mm.m)
	for j, r := range assign {
		s.Times[j][r] = t[j]
	}
	return s
}

// RoundingHook returns the primal heuristic for the branch-and-bound
// solver: it assigns each task to its largest-x̂ machine and returns the
// complete vector of that assignment's exact optimum — one-hot x, the
// core.FixedAssignment times t on the chosen machines and
// z_j = a_j(s_r·t_j). Concurrent calls share no scratch.
func (mm *MIPModel) RoundingHook() mip.RoundingHook {
	return func(x []float64) ([]float64, bool) {
		assign, t := mm.exact(x)
		cand := make([]float64, mm.Prob.LP.NumVars())
		for j, r := range assign {
			cand[mm.XVar(j, r)] = 1
			cand[mm.TVar(j, r)] = t[j]
			cand[mm.ZVar(j)] = mm.Inst.Tasks[j].Acc.Eval(mm.Inst.Machines[r].Speed * t[j])
		}
		return cand, true
	}
}

// exact rounds x to one machine per task — the largest x_jr, ties to the
// lower machine index — and returns that assignment with its exact times.
func (mm *MIPModel) exact(x []float64) (assign []int, t []float64) {
	assign, t = make([]int, mm.n), make([]float64, mm.n)
	for j := range assign {
		best, bestVal := 0, math.Inf(-1)
		for r := 0; r < mm.m; r++ {
			if v := x[mm.XVar(j, r)]; v > bestVal {
				bestVal = v
				best = r
			}
		}
		assign[j] = best
	}
	var fx core.FixedAssignment
	fx.Solve(mm.Inst.Tasks, mm.Inst.Machines, mm.Inst.Budget, assign, t)
	return assign, t
}

// Objective converts a total-accuracy value (Σ z_j) to the paper's
// minimisation objective Σ (1 − a_j).
func (mm *MIPModel) Objective(totalAccuracy float64) float64 {
	return float64(mm.n) - totalAccuracy
}
