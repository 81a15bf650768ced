package mip

// Cross-solve warm state tests: export/import round trips over mutated
// problems must reach the same optimum a cold solve finds, legacy solves
// must be unaffected by export, and the warm path must stay deterministic.

import (
	"math"
	"testing"

	"repro/internal/lp"
	"repro/internal/rng"
)

// warmKnapsack builds a GUB-structured knapsack: pairs (x_2k, x_2k+1)
// with Σ <= 1 rows and a shared capacity.
func warmKnapsack(seed int64) *Problem {
	src := rng.New(seed, "mip-warm")
	const groups = 5
	n := 2 * groups
	p := lp.NewProblem(n)
	var capTerms []lp.Term
	for i := 0; i < n; i++ {
		p.SetObjCoef(i, src.Uniform(1, 20))
		p.SetBounds(i, 0, 1)
		capTerms = append(capTerms, lp.Term{Var: i, Coef: src.Uniform(1, 10)})
	}
	for g := 0; g < groups; g++ {
		p.AddConstraint([]lp.Term{{Var: 2 * g, Coef: 1}, {Var: 2*g + 1, Coef: 1}}, lp.LE, 1)
	}
	var total float64
	for _, t := range capTerms {
		total += t.Coef
	}
	p.AddConstraint(capTerms, lp.LE, total*0.4)
	ints := make([]int, n)
	for i := range ints {
		ints[i] = i
	}
	return &Problem{LP: p, Integers: ints}
}

func solveMIP(t *testing.T, p *Problem, opts Options) *Result {
	t.Helper()
	res, err := Solve(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// Export must not change what the solver returns.
func TestExportWarmIsObservationally(t *testing.T) {
	p := warmKnapsack(7)
	plain := solveMIP(t, p, Options{})
	exported := solveMIP(t, p, Options{ExportWarm: true})
	if !sameSolution(plain, exported) {
		t.Fatal("ExportWarm changed the solution")
	}
	if exported.Warm == nil {
		t.Fatal("no warm state exported")
	}
	w := exported.Warm
	if w.RootBasis == nil {
		t.Error("exported state has no root basis")
	}
	if w.RootBasis != nil && w.RootBasis.NumRows() != p.LP.NumConstraints() {
		t.Errorf("root basis over %d rows, want %d", w.RootBasis.NumRows(), p.LP.NumConstraints())
	}
	if exported.Cuts != 0 || exported.CutRounds != 0 {
		t.Errorf("Result reports %d cuts from %d rounds; the search adds none", exported.Cuts, exported.CutRounds)
	}
	if plain.Warm != nil {
		t.Error("warm state exported without ExportWarm")
	}
}

// Round trip on the unchanged problem: importing the exported state must
// reproduce the optimum, with the root relaxation warm-started.
func TestWarmRoundTripUnchanged(t *testing.T) {
	p := warmKnapsack(11)
	first := solveMIP(t, p, Options{ExportWarm: true})
	if first.Warm == nil {
		t.Fatal("no warm state")
	}
	second := solveMIP(t, p, Options{Warm: first.Warm, ExportWarm: true})
	if second.Status != Optimal {
		t.Fatalf("warm re-solve status = %v", second.Status)
	}
	if math.Abs(second.Objective-first.Objective) > 1e-9 {
		t.Errorf("warm objective %g, want %g", second.Objective, first.Objective)
	}
	if second.Warm == nil {
		t.Error("chained export missing")
	}
}

// Warm import over a sequence of problem mutations — RHS edits, column
// deactivation, appended variables and rows — must match a cold solve on
// every step, chaining each step's export into the next import. Every
// step's root adopts the imported basis and its factor, which the step
// that appends a row extends across it.
func TestWarmAcrossMutations(t *testing.T) {
	p := warmKnapsack(3)
	capRow := p.LP.NumConstraints() - 1
	res := solveMIP(t, p, Options{ExportWarm: true})
	warm := res.Warm

	step := func(name string, mutate func()) {
		t.Helper()
		mutate()
		warmRes := solveMIP(t, p, Options{Warm: warm, ExportWarm: true})
		if warmRes.ColdSolves != 0 {
			t.Errorf("%s: %d cold solves, want the root warm from the imported basis", name, warmRes.ColdSolves)
		}
		if warmRes.InheritFallbacks != 0 {
			t.Errorf("%s: %d inherit fallbacks, want the root to adopt the imported factor (extended across appended rows)",
				name, warmRes.InheritFallbacks)
		}
		coldRes := solveMIP(t, &Problem{LP: p.LP.Clone(), Integers: p.Integers}, Options{})
		if warmRes.Status != coldRes.Status {
			t.Fatalf("%s: warm status %v, cold %v", name, warmRes.Status, coldRes.Status)
		}
		if coldRes.Status == Optimal && math.Abs(warmRes.Objective-coldRes.Objective) > 1e-7*(1+math.Abs(coldRes.Objective)) {
			t.Errorf("%s: warm objective %g, cold %g", name, warmRes.Objective, coldRes.Objective)
		}
		warm = warmRes.Warm
	}

	step("tighten capacity", func() { p.LP.SetRHS(capRow, 12) })
	step("deactivate a column", func() { p.LP.Deactivate(3) })
	step("relax capacity", func() { p.LP.SetRHS(capRow, 28) })
	step("append a variable into the capacity row", func() {
		v := p.LP.AddVariables(1)
		p.LP.SetObjCoef(v, 9)
		p.LP.SetBounds(v, 0, 1)
		p.LP.AppendTerms(capRow, []lp.Term{{Var: v, Coef: 4}})
		p.LP.AddConstraint([]lp.Term{{Var: v, Coef: 1}, {Var: 0, Coef: 1}}, lp.LE, 1)
		ints := append(append([]int(nil), p.Integers...), v)
		p = &Problem{LP: p.LP, Integers: ints}
		// New rows shift nothing (appended after the warm snapshot's rows),
		// so the state imports as-is.
	})
}

// The warm path must stay deterministic: WarmState is read-only to the
// solver, so importing one state twice, the second time on a used
// workspace, runs the same search.
func TestWarmDeterministicAcrossWorkers(t *testing.T) {
	p := warmKnapsack(19)
	first := solveMIP(t, p, Options{ExportWarm: true})
	p.LP.SetRHS(p.LP.NumConstraints()-1, 14)
	checkRepeat(t, "warm import", p, Options{Warm: first.Warm}, usedWorkspace(t))
}

// A caller-owned workspace must not change the result.
func TestWarmCallerWorkspace(t *testing.T) {
	p := warmKnapsack(23)
	ws := lp.NewWorkspace()
	plain := solveMIP(t, p, Options{})
	withWS := solveMIP(t, p, Options{Workspace: ws})
	if !sameSolution(plain, withWS) {
		t.Fatal("caller workspace changed the solution")
	}
	// And reusing it across consecutive warm re-solves stays correct.
	first := solveMIP(t, p, Options{Workspace: ws, ExportWarm: true})
	p.LP.SetRHS(p.LP.NumConstraints()-1, 13)
	warmRes := solveMIP(t, p, Options{Workspace: ws, Warm: first.Warm})
	coldRes := solveMIP(t, &Problem{LP: p.LP.Clone(), Integers: p.Integers}, Options{})
	if math.Abs(warmRes.Objective-coldRes.Objective) > 1e-9 {
		t.Errorf("workspace warm objective %g, cold %g", warmRes.Objective, coldRes.Objective)
	}
	_ = first
}

// An obviously stale basis (over more rows than the problem ever had) must
// degrade to a cold root solve, not fail.
func TestWarmNonAdoptableFallsBack(t *testing.T) {
	p := warmKnapsack(29)
	// Export from a copy with two extra rows: the basis names rows p does
	// not have, so the import drops it and the root solves cold.
	bigger := p.LP.Clone()
	bigger.AddConstraint([]lp.Term{{Var: 0, Coef: 1}, {Var: 2, Coef: 1}}, lp.LE, 1)
	bigger.AddConstraint([]lp.Term{{Var: 1, Coef: 1}, {Var: 3, Coef: 1}}, lp.LE, 1)
	res := solveMIP(t, &Problem{LP: bigger, Integers: p.Integers}, Options{ExportWarm: true})
	if res.Warm.RootBasis == nil || res.Warm.RootBasis.NumRows() <= p.LP.NumConstraints() {
		t.Fatal("no root basis over more rows than the problem has")
	}
	warmRes := solveMIP(t, p, Options{Warm: res.Warm})
	cold := solveMIP(t, p, Options{})
	if warmRes.Status != Optimal || math.Abs(warmRes.Objective-cold.Objective) > 1e-9 {
		t.Fatalf("stale warm state: status %v objective %g, want optimal %g",
			warmRes.Status, warmRes.Objective, cold.Objective)
	}
	if warmRes.ColdSolves < 1 {
		t.Error("stale warm state: the root did not solve cold")
	}
}
