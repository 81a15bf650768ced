package model

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/lp"
	"repro/internal/mip"
	"repro/internal/numeric"
	"repro/internal/rng"
	"repro/internal/schedule"
	"repro/internal/task"
)

func genInstance(t *testing.T, seed int64, n, m int, rho, beta float64) *task.Instance {
	t.Helper()
	cfg := task.DefaultConfig(n, rho, beta)
	cfg.ThetaMax = 1.0
	in, err := task.GenerateUniformFleet(rng.New(seed, "model"), cfg, m)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestFRModelShape(t *testing.T) {
	in := genInstance(t, 1, 8, 3, 0.5, 0.5)
	fm := BuildFR(in)
	n, m := in.N(), in.M()
	segs := 0
	for _, tk := range in.Tasks {
		segs += tk.Acc.NumSegments()
	}
	wantVars := n*m + n
	if fm.Prob.NumVars() != wantVars {
		t.Errorf("vars = %d, want %d", fm.Prob.NumVars(), wantVars)
	}
	// Rows: segments + fmax (n) + staircases (n·m) + energy (1).
	wantRows := segs + n + n*m + 1
	if fm.Prob.NumConstraints() != wantRows {
		t.Errorf("rows = %d, want %d", fm.Prob.NumConstraints(), wantRows)
	}
	// Index layout is a bijection.
	seen := map[int]bool{}
	for j := 0; j < n; j++ {
		for r := 0; r < m; r++ {
			v := fm.TVar(j, r)
			if seen[v] {
				t.Fatalf("duplicate TVar index %d", v)
			}
			seen[v] = true
		}
		if seen[fm.ZVar(j)] {
			t.Fatalf("ZVar collides at %d", fm.ZVar(j))
		}
		seen[fm.ZVar(j)] = true
	}
}

func TestFRSolutionFeasibleAndConsistent(t *testing.T) {
	in := genInstance(t, 2, 10, 3, 0.5, 0.4)
	fm := BuildFR(in)
	sol, err := lp.Solve(fm.Prob, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != lp.Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	s := fm.Schedule(sol.X)
	if err := s.Validate(in, schedule.ValidateOptions{}); err != nil {
		t.Fatalf("FR schedule infeasible: %v", err)
	}
	// At optimum z_j equals a_j(f_j): objective equals schedule accuracy.
	if acc := s.TotalAccuracy(in); math.Abs(acc-sol.Objective) > 1e-5 {
		t.Errorf("LP objective %g != schedule accuracy %g", sol.Objective, acc)
	}
}

func TestFRObjectiveMonotoneInBudget(t *testing.T) {
	// More budget can never hurt the relaxation.
	var prev float64
	for i, beta := range []float64{0.05, 0.2, 0.5, 1.0} {
		in := genInstance(t, 3, 8, 2, 0.5, beta)
		sol, err := lp.Solve(BuildFR(in).Prob, lp.Options{})
		if err != nil || sol.Status != lp.Optimal {
			t.Fatalf("beta=%g: %v %v", beta, sol.Status, err)
		}
		if i > 0 && sol.Objective < prev-1e-6 {
			t.Errorf("objective decreased with budget: %g -> %g", prev, sol.Objective)
		}
		prev = sol.Objective
	}
}

func TestMIPModelShapeAndSolve(t *testing.T) {
	in := genInstance(t, 4, 4, 2, 0.8, 0.6)
	mm := BuildMIP(in)
	n, m := in.N(), in.M()
	if mm.Prob.LP.NumVars() != 2*n*m+n {
		t.Errorf("vars = %d, want %d", mm.Prob.LP.NumVars(), 2*n*m+n)
	}
	if len(mm.Prob.Integers) != n*m {
		t.Errorf("integers = %d, want %d", len(mm.Prob.Integers), n*m)
	}
	res, err := mip.Solve(mm.Prob, mip.Options{
		Deadline: time.Now().Add(30 * time.Second),
		Rounding: mm.RoundingHook(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != mip.Optimal && res.Status != mip.Feasible {
		t.Fatalf("status %v", res.Status)
	}
	s := mm.Schedule(res.X)
	if err := s.Validate(in, schedule.ValidateOptions{RequireIntegral: true}); err != nil {
		t.Fatalf("MIP schedule infeasible: %v", err)
	}
	if acc := s.TotalAccuracy(in); math.Abs(acc-res.Objective) > 1e-4 {
		t.Errorf("MIP objective %g != schedule accuracy %g", res.Objective, acc)
	}
	if obj := mm.Objective(res.Objective); math.Abs(obj-(float64(n)-res.Objective)) > 1e-9 {
		t.Errorf("Objective conversion wrong: %g", obj)
	}
}

func TestMIPBoundedByFR(t *testing.T) {
	// The fractional relaxation upper-bounds the integral optimum, and the
	// MIP's own LP bound must also dominate its incumbent.
	in := genInstance(t, 5, 4, 2, 0.6, 0.5)
	fr, err := lp.Solve(BuildFR(in).Prob, lp.Options{})
	if err != nil || fr.Status != lp.Optimal {
		t.Fatalf("FR solve: %v %v", fr.Status, err)
	}
	mm := BuildMIP(in)
	res, err := mip.Solve(mm.Prob, mip.Options{Deadline: time.Now().Add(30 * time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != mip.Optimal {
		t.Skipf("MIP not solved to optimality in time: %v", res.Status)
	}
	if res.Objective > fr.Objective+1e-5 {
		t.Errorf("integral optimum %g exceeds fractional relaxation %g", res.Objective, fr.Objective)
	}
}

// TestRoundingHookShape: the hook rounds each task to its largest-x̂
// machine and returns that assignment's complete exact vector — one-hot x,
// t only on the chosen machine, z_j = a_j(s_r·t_j) — and mip accepts the
// vector as its incumbent.
func TestRoundingHookShape(t *testing.T) {
	in := genInstance(t, 6, 3, 2, 0.8, 0.8)
	mm := BuildMIP(in)
	hook := mm.RoundingHook()
	x := make([]float64, mm.Prob.LP.NumVars())
	// Fractional assignment: x_{j,0} = 0.4, x_{j,1} = 0.6 -> machine 1.
	for j := 0; j < in.N(); j++ {
		x[mm.XVar(j, 0)] = 0.4
		x[mm.XVar(j, 1)] = 0.6
	}
	cand, ok := hook(x)
	if !ok || len(cand) != mm.Prob.LP.NumVars() {
		t.Fatalf("hook returned ok=%v len=%d, want %d", ok, len(cand), mm.Prob.LP.NumVars())
	}
	for j, tk := range in.Tasks {
		if !numeric.AlmostEqual(cand[mm.XVar(j, 1)], 1) || cand[mm.XVar(j, 0)] != 0 {
			t.Errorf("task %d rounded to wrong machine: x = %g, %g", j, cand[mm.XVar(j, 0)], cand[mm.XVar(j, 1)])
		}
		if cand[mm.TVar(j, 0)] != 0 || !(cand[mm.TVar(j, 1)] > 0) {
			t.Errorf("task %d: t = %g, %g, want time on machine 1 only", j, cand[mm.TVar(j, 0)], cand[mm.TVar(j, 1)])
		}
		if z := tk.Acc.Eval(in.Machines[1].Speed * cand[mm.TVar(j, 1)]); !numeric.AlmostEqual(cand[mm.ZVar(j)], z) {
			t.Errorf("task %d: z = %.15g, want a_j(s_r·t_j) = %.15g", j, cand[mm.ZVar(j)], z)
		}
	}

	// A one-node search offers the root candidate: its X is the hook's vector.
	in = fig4PinInstance(t, 0)
	mm = BuildMIP(in)
	var last []float64
	inner := mm.RoundingHook()
	res, err := mip.Solve(mm.Prob, mip.Options{Workers: 1, MaxNodes: 1, Rounding: func(x []float64) ([]float64, bool) {
		c, ok := inner(x)
		last = c
		return c, ok
	}})
	if err != nil {
		t.Fatal(err)
	}
	if last == nil {
		t.Fatal("rounding hook never called at the root")
	}
	if res.X == nil {
		t.Fatalf("root candidate not accepted: status %v", res.Status)
	}
	for v := range last {
		if math.Float64bits(res.X[v]) != math.Float64bits(last[v]) {
			t.Fatalf("incumbent differs from the root candidate at column %d: %g vs %g", v, res.X[v], last[v])
		}
	}
}

// TestScheduleExtractionMatchesObjective: MIPModel.Schedule rebuilds the
// times from the incumbent's assignment, so the schedule scores exactly the
// assignment's optimum. On this instance the incumbent's own t_jr met the
// epigraph rows only within LP tolerance and scored 3.9e-5 below the
// objective (5.72641475407 against 5.72663701114).
func TestScheduleExtractionMatchesObjective(t *testing.T) {
	in, err := task.GenerateUniformFleet(rng.NewReplicate(2, "scratch/n=11", 19), task.PaperFig4(11), 3)
	if err != nil {
		t.Fatal(err)
	}
	mm := BuildMIP(in)
	res, err := mip.Solve(mm.Prob, mip.Options{Workers: 1, Rounding: mm.RoundingHook()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != mip.Optimal || res.Nodes != 41 {
		t.Fatalf("status %v after %d nodes, want optimal after 41", res.Status, res.Nodes)
	}
	if !numeric.Close(res.Objective, 5.72663701114, 1e-11) {
		t.Fatalf("objective %.12g, want 5.72663701114", res.Objective)
	}
	s := mm.Schedule(res.X)
	if err := s.Validate(in, schedule.ValidateOptions{RequireIntegral: true}); err != nil {
		t.Fatalf("extracted schedule invalid: %v", err)
	}
	if acc := s.TotalAccuracy(in); !numeric.Close(acc, res.Objective, 1e-12) {
		t.Errorf("schedule accuracy %.12g, objective %.12g", acc, res.Objective)
	}
	if e := s.Energy(in); e > in.Budget {
		t.Errorf("schedule energy %.15g exceeds budget %.15g", e, in.Budget)
	}
}

func TestZeroBudgetForcesAMin(t *testing.T) {
	in := genInstance(t, 7, 5, 2, 0.5, 0)
	in.Budget = 0
	sol, err := lp.Solve(BuildFR(in).Prob, lp.Options{})
	if err != nil || sol.Status != lp.Optimal {
		t.Fatalf("%v %v", sol.Status, err)
	}
	// No energy -> no work -> every task scores a_min.
	want := 0.0
	for _, tk := range in.Tasks {
		want += tk.Acc.AMin()
	}
	if math.Abs(sol.Objective-want) > 1e-6 {
		t.Errorf("objective %g, want Σ a_min = %g", sol.Objective, want)
	}
}

func TestFRDualCertificate(t *testing.T) {
	// The strongest oracle available: an optimal primal/dual pair for the
	// FR LP must pass lp.Certify, proving both the model build and the
	// simplex solve correct from first principles.
	in := genInstance(t, 8, 12, 3, 0.35, 0.4)
	fm := BuildFR(in)
	ds, err := lp.SolveWithDuals(fm.Prob, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Status != lp.Optimal {
		t.Fatalf("status %v", ds.Status)
	}
	if err := lp.Certify(fm.Prob, ds.X, ds.Duals, 1e-5); err != nil {
		t.Fatalf("certificate rejected: %v", err)
	}
	// The energy constraint is the last row; its shadow price is the
	// accuracy gained per extra Joule of budget and cannot be negative.
	energyDual := ds.Duals[fm.Prob.NumConstraints()-1]
	if energyDual < -1e-9 {
		t.Errorf("energy shadow price %g is negative", energyDual)
	}
}

// TestMIPAgainstAssignmentEnumeration holds the exact path to the
// brute-force oracle (oracle_test.go): on every assignment of 48 instances
// — (n, m) in {5, 6, 7} × {2, 3}, tight and loose deadlines (ρ) crossed
// with tight and loose budgets (β), two seeds — core.FixedAssignment must
// match the oracle's score, and the branch-and-bound optimum must match
// the best score under every search setting, each within 1e-12 relative.
func TestMIPAgainstAssignmentEnumeration(t *testing.T) {
	settings := []struct {
		name string
		opts mip.Options
	}{
		{"default", mip.Options{}},
		{"workers=4", mip.Options{Workers: 4}},
		{"cold", mip.Options{DisableWarmStart: true}},
	}
	var fx core.FixedAssignment
	for _, n := range []int{5, 6, 7} {
		for _, m := range []int{2, 3} {
			for _, reg := range [][2]float64{{0.1, 0.15}, {0.1, 1}, {1, 0.15}, {1, 1}} {
				for seed := int64(1); seed <= 2; seed++ {
					in := genInstance(t, 1000*seed+int64(10*n+m), n, m, reg[0], reg[1])
					label := fmt.Sprintf("n=%d m=%d rho=%g beta=%g seed %d", n, m, reg[0], reg[1], seed)
					best := math.Inf(-1)
					times := make([]float64, n)
					forEachAssignment(n, m, func(assign []int) {
						want := scanAssignment(in.Tasks, in.Machines, in.Budget, assign)
						best = math.Max(best, want)
						if got := fx.Solve(in.Tasks, in.Machines, in.Budget, assign, times); !numeric.Close(got, want, 1e-12) {
							t.Errorf("%s, assignment %v: evaluator %.17g, oracle %.17g", label, assign, got, want)
						}
					})
					mm := BuildMIP(in)
					for _, st := range settings {
						res, err := mip.Solve(mm.Prob, st.opts)
						if err != nil {
							t.Fatalf("%s %s: %v", label, st.name, err)
						}
						if res.Status != mip.Optimal || !numeric.Close(res.Objective, best, 1e-12) {
							t.Errorf("%s %s: %v optimum %.17g, oracle %.17g", label, st.name, res.Status, res.Objective, best)
						}
					}
				}
			}
		}
	}
}

// TestFixedAssignmentMatchesPinnedLP is the evaluator's oracle: on every
// assignment of a small corpus — (n, m) of (5, 2), (5, 3) and (6, 2),
// tight and loose deadlines (ρ) crossed with tight and loose budgets (β),
// three seeds — the core.FixedAssignment optimum must equal the LP
// optimum with every binary pinned, within 1e-12 relative.
func TestFixedAssignmentMatchesPinnedLP(t *testing.T) {
	var fx core.FixedAssignment
	for _, nm := range [][2]int{{5, 2}, {5, 3}, {6, 2}} {
		for _, reg := range [][2]float64{{0.1, 0.15}, {0.1, 1}, {1, 0.15}, {1, 1}} {
			for seed := int64(1); seed <= 3; seed++ {
				in := genInstance(t, 100*seed+int64(nm[0]*10+nm[1]), nm[0], nm[1], reg[0], reg[1])
				mm := BuildMIP(in)
				times := make([]float64, in.N())
				forEachAssignment(in.N(), in.M(), func(assign []int) {
					want := pinnedLP(t, mm, assign)
					if got := fx.Solve(in.Tasks, in.Machines, in.Budget, assign, times); !numeric.Close(got, want, 1e-12) {
						t.Errorf("n=%d m=%d rho=%g beta=%g seed %d, assignment %v: evaluator %.15g, pinned LP %.15g",
							nm[0], nm[1], reg[0], reg[1], seed, assign, got, want)
					}
				})
			}
		}
	}
}

// pinnedLP solves mm's LP with every binary pinned to the assignment and
// returns the optimum.
func pinnedLP(t *testing.T, mm *MIPModel, assign []int) float64 {
	t.Helper()
	p := mm.Prob.LP.Overlay()
	for j, r := range assign {
		for rr := 0; rr < mm.m; rr++ {
			v := 0.0
			if rr == r {
				v = 1
			}
			p.SetBounds(mm.XVar(j, rr), v, v)
		}
	}
	sol, err := lp.Solve(p, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != lp.Optimal {
		t.Fatalf("assignment %v: pinned LP %v", assign, sol.Status)
	}
	return sol.Objective
}

// TestMIPStructureHints: BuildMIP must hand the branch-and-cut separator
// an accurate row map — one GUB assignment row per task, exactly one
// energy-budget row, and one VUB deadline link per (task, machine) — with
// indices that really point at rows of that shape.
func TestMIPStructureHints(t *testing.T) {
	in := genInstance(t, 9, 5, 3, 0.4, 0.5)
	mm := BuildMIP(in)
	st := mm.Prob.Structure
	if st == nil {
		t.Fatal("BuildMIP left Problem.Structure nil")
	}
	n, m := in.N(), in.M()
	if len(st.GUBRows) != n {
		t.Fatalf("GUB rows = %d, want %d", len(st.GUBRows), n)
	}
	if len(st.BudgetRows) != 1 {
		t.Fatalf("budget rows = %d, want 1", len(st.BudgetRows))
	}
	if len(st.VUBs) != n*m {
		t.Fatalf("VUBs = %d, want %d", len(st.VUBs), n*m)
	}
	for j, row := range st.GUBRows {
		terms, sense, rhs := mm.Prob.LP.Constraint(row)
		//lint:ignore floatcmp BuildMIP writes the exact literal 1 as the assignment rhs
		if sense != lp.EQ || rhs != 1 || len(terms) != m {
			t.Fatalf("GUB row %d for task %d: %d terms, sense %v, rhs %g", row, j, len(terms), sense, rhs)
		}
		for r, tm := range terms {
			//lint:ignore floatcmp assignment coefficients are the exact literal 1
			if tm.Var != mm.XVar(j, r) || tm.Coef != 1 {
				t.Fatalf("GUB row for task %d has term %+v at position %d", j, tm, r)
			}
		}
	}
	terms, sense, rhs := mm.Prob.LP.Constraint(st.BudgetRows[0])
	//lint:ignore floatcmp the budget rhs is copied verbatim from the instance
	if sense != lp.LE || rhs != in.Budget || len(terms) != n*m {
		t.Fatalf("budget row: %d terms, sense %v, rhs %g (budget %g)", len(terms), sense, rhs, in.Budget)
	}
	for k, vb := range st.VUBs {
		j, r := k/m, k%m
		if vb.Cont != mm.TVar(j, r) || vb.Bin != mm.XVar(j, r) {
			t.Fatalf("VUB %d = %+v, want link t(%d,%d) <= d·x(%d,%d)", k, vb, j, r, j, r)
		}
		//lint:ignore floatcmp the VUB bound is copied verbatim from the task deadline
		if vb.U != in.Tasks[j].Deadline {
			t.Fatalf("VUB %d U = %g, want deadline %g", k, vb.U, in.Tasks[j].Deadline)
		}
	}
}
