package mip

// Root-presolve differential: branch and bound searching the reduced
// space must report the same optimum as the direct search. The knapsack
// family is ideal food — its x_i <= 1 rows are singleton rows and the
// integers are keep columns, so the root reduction rewrites every node
// while the integer indices must keep meaning through Col's remap.

import (
	"math"
	"testing"

	"repro/internal/lp"
	"repro/internal/numeric"
	"repro/internal/rng"
)

func TestPresolveMatchesDirect(t *testing.T) {
	for trial := 0; trial < 12; trial++ {
		src := rng.NewReplicate(14, "mip-presolve", trial)
		n := 4 + src.Intn(9)
		values := make([]float64, n)
		weights := make([]float64, n)
		var total float64
		for i := range values {
			values[i] = src.Uniform(1, 100)
			weights[i] = src.Uniform(1, 50)
			total += weights[i]
		}
		capacity := total * src.Uniform(0.2, 0.8)
		prob := knapsackProblem(values, weights, capacity)

		direct, err := Solve(prob, Options{})
		if err != nil {
			t.Fatal(err)
		}
		presolved, err := Solve(prob, Options{LP: lp.Options{Presolve: lp.PresolveOn}})
		if err != nil {
			t.Fatal(err)
		}
		if direct.Status != presolved.Status {
			t.Fatalf("trial %d: status %v != %v", trial, direct.Status, presolved.Status)
		}
		if direct.Status != Optimal {
			t.Fatalf("trial %d: status %v, want Optimal", trial, direct.Status)
		}
		if math.Abs(direct.Objective-presolved.Objective) > 1e-5 {
			t.Errorf("trial %d: objective %g != %g", trial, direct.Objective, presolved.Objective)
		}
		if presolved.Bound < presolved.Objective-1e-5 {
			t.Errorf("trial %d: bound %g below objective %g", trial, presolved.Bound, presolved.Objective)
		}
		// The incumbent must be a genuine integral knapsack solution of
		// the ORIGINAL problem, postsolved to full length.
		if len(presolved.X) != n {
			t.Fatalf("trial %d: X has %d vars, want %d", trial, len(presolved.X), n)
		}
		var load, val float64
		for i, x := range presolved.X {
			if math.Abs(x-math.Round(x)) > intTol {
				t.Errorf("trial %d: x[%d] = %g not integral", trial, i, x)
			}
			load += weights[i] * x
			val += values[i] * x
		}
		if load > capacity+1e-6 {
			t.Errorf("trial %d: load %g exceeds capacity %g", trial, load, capacity)
		}
		if math.Abs(val-presolved.Objective) > 1e-5 {
			t.Errorf("trial %d: reported objective %g != recomputed %g", trial, presolved.Objective, val)
		}
	}
}

// TestPresolvePinnedBinary: a zero-width box on an integer (exactly what
// branching produces) must survive the root presolve as a keep column
// and come back pinned in the incumbent.
func TestPresolvePinnedBinary(t *testing.T) {
	values := []float64{60, 100, 120}
	weights := []float64{10, 20, 30}
	prob := knapsackProblem(values, weights, 50)
	prob.LP.SetBounds(0, 1, 1) // force item 0 in

	direct, err := Solve(prob, Options{})
	if err != nil {
		t.Fatal(err)
	}
	presolved, err := Solve(prob, Options{LP: lp.Options{Presolve: lp.PresolveOn}})
	if err != nil {
		t.Fatal(err)
	}
	if direct.Status != Optimal || presolved.Status != Optimal {
		t.Fatalf("status %v / %v, want Optimal", direct.Status, presolved.Status)
	}
	if math.Abs(direct.Objective-presolved.Objective) > 1e-6 {
		t.Errorf("objective %g != %g", direct.Objective, presolved.Objective)
	}
	if presolved.X[0] < 1-intTol {
		t.Errorf("pinned item not in solution: x[0] = %g", presolved.X[0])
	}
	// Forcing item 0 (weight 10) leaves room for item 2 or 1 but not
	// both: best is 60 + 120 = 180.
	if math.Abs(presolved.Objective-180) > 1e-6 {
		t.Errorf("objective %g, want 180", presolved.Objective)
	}
}

// TestPresolveRoundingHook: under root presolve the hook's original-space
// candidate is mapped into the reduced space (lp.Presolved.ReduceX) and
// checked there. The problem mixes a knapsack with a continuous column y
// that draws 40 capacity per unit and a column f fixed at 1, which
// presolve eliminates. A hook returning the optimum lets a one-node search
// end on it, with the same result as the direct search.
func TestPresolveRoundingHook(t *testing.T) {
	values := []float64{9, 13, 7, 11, 5}
	weights := []float64{4, 6, 3, 5, 2}
	const capacity = 13.5
	n := len(values)
	y, f := n, n+1
	p := lp.NewProblem(n + 2)
	capTerms := []lp.Term{{Var: y, Coef: 40}, {Var: f, Coef: 1}}
	for i := range values {
		p.SetObjCoef(i, values[i])
		p.AddConstraint([]lp.Term{{Var: i, Coef: 1}}, lp.LE, 1)
		capTerms = append(capTerms, lp.Term{Var: i, Coef: weights[i]})
	}
	p.SetObjCoef(y, 3)
	p.SetBounds(y, 0, 0.25)
	p.SetObjCoef(f, 2)
	p.SetBounds(f, 1, 1)
	p.AddConstraint(capTerms, lp.LE, capacity)
	ints := make([]int, n)
	for i := range ints {
		ints[i] = i
	}
	prob := &Problem{LP: p, Integers: ints}

	// Brute force: the best item set, then as much y as the room allows.
	best, bestX := math.Inf(-1), []float64(nil)
	for mask := 0; mask < 1<<n; mask++ {
		x := make([]float64, n+2)
		x[f] = 1
		v, w := 2.0, 1.0
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				x[i] = 1
				v += values[i]
				w += weights[i]
			}
		}
		if w > capacity {
			continue
		}
		x[y] = math.Min(0.25, (capacity-w)/40)
		if v += 3 * x[y]; v > best {
			best, bestX = v, x
		}
	}

	var got [2]*Result
	for k, mode := range []lp.PresolveMode{lp.PresolveOff, lp.PresolveOn} {
		called := false
		res, err := Solve(prob, Options{MaxNodes: 1, LP: lp.Options{Presolve: mode}, Rounding: func([]float64) ([]float64, bool) {
			called = true
			return append([]float64(nil), bestX...), true
		}})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if !called {
			t.Fatalf("%v: rounding hook never called at the root", mode)
		}
		if res.X == nil || !numeric.Close(res.Objective, best, 1e-12) {
			t.Fatalf("%v: root candidate not adopted: status %v obj %g, want %g", mode, res.Status, res.Objective, best)
		}
		got[k] = res
	}
	for v := range got[0].X {
		if !numeric.AlmostEqual(got[0].X[v], got[1].X[v]) {
			t.Errorf("x[%d]: presolve off %g, on %g", v, got[0].X[v], got[1].X[v])
		}
	}
}

// TestPresolveInfeasibleRoot: an infeasible root must be detected by the
// reductions alone and reported without any node solves.
func TestPresolveInfeasibleRoot(t *testing.T) {
	p := lp.NewProblem(2)
	p.SetObjCoef(0, 1)
	p.SetBounds(0, 0, 1)
	p.SetBounds(1, 0, 1)
	p.AddConstraint([]lp.Term{{Var: 0, Coef: 1}, {Var: 1, Coef: 1}}, lp.GE, 5)
	res, err := Solve(&Problem{LP: p, Integers: []int{0, 1}}, Options{LP: lp.Options{Presolve: lp.PresolveOn}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Infeasible {
		t.Fatalf("status %v, want Infeasible", res.Status)
	}
	if res.Nodes != 0 {
		t.Errorf("presolve-detected infeasibility explored %d nodes, want 0", res.Nodes)
	}
}
