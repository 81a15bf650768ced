package mip

import (
	"math"
	"testing"
	"time"

	"repro/internal/lp"
	"repro/internal/numeric"
	"repro/internal/rng"
)

// knapsackProblem builds a 0/1 knapsack max Σ v_i x_i s.t. Σ w_i x_i <= cap,
// x_i in {0,1} (with explicit x_i <= 1 rows).
func knapsackProblem(values, weights []float64, capacity float64) *Problem {
	n := len(values)
	p := lp.NewProblem(n)
	var capTerms []lp.Term
	for i := 0; i < n; i++ {
		p.SetObjCoef(i, values[i])
		p.AddConstraint([]lp.Term{{Var: i, Coef: 1}}, lp.LE, 1)
		capTerms = append(capTerms, lp.Term{Var: i, Coef: weights[i]})
	}
	p.AddConstraint(capTerms, lp.LE, capacity)
	ints := make([]int, n)
	for i := range ints {
		ints[i] = i
	}
	return &Problem{LP: p, Integers: ints}
}

// bruteKnapsack solves the knapsack exactly by enumeration.
func bruteKnapsack(values, weights []float64, capacity float64) float64 {
	n := len(values)
	best := 0.0
	for mask := 0; mask < 1<<n; mask++ {
		var v, w float64
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				v += values[i]
				w += weights[i]
			}
		}
		if w <= capacity && v > best {
			best = v
		}
	}
	return best
}

func TestKnapsackSmall(t *testing.T) {
	values := []float64{60, 100, 120}
	weights := []float64{10, 20, 30}
	res, err := Solve(knapsackProblem(values, weights, 50), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal {
		t.Fatalf("status = %v", res.Status)
	}
	if math.Abs(res.Objective-220) > 1e-6 {
		t.Errorf("objective = %g, want 220", res.Objective)
	}
	// x = (0, 1, 1).
	if res.X[0] > intTol || res.X[1] < 1-intTol || res.X[2] < 1-intTol {
		t.Errorf("x = %v, want [0 1 1]", res.X)
	}
	if res.Bound < res.Objective-1e-6 {
		t.Errorf("bound %g below objective %g", res.Bound, res.Objective)
	}
}

// TestPinnedBinary: a zero-width box on an integer (exactly what branching
// produces) must come back pinned in the incumbent.
func TestPinnedBinary(t *testing.T) {
	values := []float64{60, 100, 120}
	weights := []float64{10, 20, 30}
	prob := knapsackProblem(values, weights, 50)
	prob.LP.SetBounds(0, 1, 1) // force item 0 in
	res, err := Solve(prob, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal {
		t.Fatalf("status = %v, want Optimal", res.Status)
	}
	if res.X[0] < 1-intTol {
		t.Errorf("pinned item not in solution: x[0] = %g", res.X[0])
	}
	// Forcing item 0 (weight 10) leaves room for item 2 or 1 but not
	// both: best is 60 + 120 = 180.
	if math.Abs(res.Objective-180) > 1e-6 {
		t.Errorf("objective %g, want 180", res.Objective)
	}
}

func TestKnapsackRandomAgainstBruteForce(t *testing.T) {
	for trial := 0; trial < 15; trial++ {
		src := rng.NewReplicate(11, "knap", trial)
		n := 4 + src.Intn(9) // 4..12 items
		values := make([]float64, n)
		weights := make([]float64, n)
		var total float64
		for i := range values {
			values[i] = src.Uniform(1, 100)
			weights[i] = src.Uniform(1, 50)
			total += weights[i]
		}
		capacity := total * src.Uniform(0.2, 0.8)
		res, err := Solve(knapsackProblem(values, weights, capacity), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != Optimal {
			t.Fatalf("trial %d: status %v", trial, res.Status)
		}
		want := bruteKnapsack(values, weights, capacity)
		if math.Abs(res.Objective-want) > 1e-5 {
			t.Errorf("trial %d: objective %g, want %g", trial, res.Objective, want)
		}
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	src := rng.New(13, "par")
	n := 14
	values := make([]float64, n)
	weights := make([]float64, n)
	var total float64
	for i := range values {
		values[i] = src.Uniform(1, 100)
		weights[i] = src.Uniform(1, 50)
		total += weights[i]
	}
	capacity := total * 0.45
	prob := knapsackProblem(values, weights, capacity)
	serial, err := Solve(prob, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Solve(prob, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Status != Optimal || parallel.Status != Optimal {
		t.Fatalf("statuses: %v, %v", serial.Status, parallel.Status)
	}
	if math.Abs(serial.Objective-parallel.Objective) > 1e-6 {
		t.Errorf("serial %g != parallel %g", serial.Objective, parallel.Objective)
	}
}

func TestInfeasibleMIP(t *testing.T) {
	p := lp.NewProblem(1)
	p.SetObjCoef(0, 1)
	p.AddConstraint([]lp.Term{{Var: 0, Coef: 1}}, lp.GE, 2)
	p.AddConstraint([]lp.Term{{Var: 0, Coef: 1}}, lp.LE, 1)
	res, err := Solve(&Problem{LP: p, Integers: []int{0}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", res.Status)
	}
}

func TestIntegerInfeasibleByBranching(t *testing.T) {
	// LP feasible only at x = 0.5: 2x == 1 with x integral -> infeasible.
	p := lp.NewProblem(1)
	p.SetObjCoef(0, 1)
	p.AddConstraint([]lp.Term{{Var: 0, Coef: 2}}, lp.EQ, 1)
	res, err := Solve(&Problem{LP: p, Integers: []int{0}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", res.Status)
	}
}

func TestUnboundedRoot(t *testing.T) {
	p := lp.NewProblem(1)
	p.SetObjCoef(0, 1)
	if _, err := Solve(&Problem{LP: p, Integers: []int{0}}, Options{}); err == nil {
		t.Error("unbounded root should error")
	}
}

func TestPureLPNoIntegers(t *testing.T) {
	p := lp.NewProblem(1)
	p.SetObjCoef(0, 1)
	p.AddConstraint([]lp.Term{{Var: 0, Coef: 1}}, lp.LE, 2.5)
	res, err := Solve(&Problem{LP: p}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal || math.Abs(res.Objective-2.5) > 1e-7 {
		t.Errorf("got %v obj %g", res.Status, res.Objective)
	}
}

func TestGeneralIntegerBranching(t *testing.T) {
	// max x + y s.t. 2x + 3y <= 12.5, x,y integer >= 0 -> relaxation is
	// fractional; integer optimum value 6 (e.g. x=6, y=0 gives 12 <= 12.5).
	p := lp.NewProblem(2)
	p.SetObjCoef(0, 1)
	p.SetObjCoef(1, 1)
	p.AddConstraint([]lp.Term{{Var: 0, Coef: 2}, {Var: 1, Coef: 3}}, lp.LE, 12.5)
	res, err := Solve(&Problem{LP: p, Integers: []int{0, 1}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal || math.Abs(res.Objective-6) > 1e-6 {
		t.Errorf("got %v obj %g, want 6", res.Status, res.Objective)
	}
	for _, v := range res.X {
		if math.Abs(v-math.Round(v)) > intTol*10 {
			t.Errorf("non-integral solution %v", res.X)
		}
	}
}

func TestDeadlineStopsSearch(t *testing.T) {
	src := rng.New(17, "deadline")
	n := 22
	values := make([]float64, n)
	weights := make([]float64, n)
	var total float64
	for i := range values {
		values[i] = src.Uniform(1, 100)
		weights[i] = src.Uniform(1, 50)
		total += weights[i]
	}
	prob := knapsackProblem(values, weights, total*0.5)
	res, err := Solve(prob, Options{Deadline: time.Now().Add(20 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	// Must stop promptly with some status; bound must dominate objective.
	if res.Status == Optimal {
		t.Skip("machine fast enough to prove optimality in 20ms")
	}
	if res.Status == Feasible && res.Bound < res.Objective-1e-6 {
		t.Errorf("bound %g < incumbent %g", res.Bound, res.Objective)
	}
}

func TestNodeLimit(t *testing.T) {
	values := []float64{10, 20, 30, 40, 50, 60}
	weights := []float64{1, 2, 3, 4, 5, 6}
	prob := knapsackProblem(values, weights, 10.5)
	res, err := Solve(prob, Options{MaxNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes > 1 {
		t.Errorf("processed %d nodes, limit 1", res.Nodes)
	}
	if res.Status == Optimal {
		// With one node the relaxation must have been already integral.
		t.Logf("root relaxation integral")
	}
}

// hookValues and hookWeights are the items of a 10-item knapsack whose
// root relaxation, at capacity 17 and at 18/(1+1e-6), is fractional, so a
// rounding hook runs at the root.
var (
	hookValues  = []float64{9, 13, 7, 11, 5, 8, 12, 6, 10, 4}
	hookWeights = []float64{4, 6, 3, 5, 2, 4, 6, 3, 5, 2}
)

func TestRoundingHookProvidesIncumbent(t *testing.T) {
	prob := knapsackProblem(hookValues, hookWeights, 17)
	want := bruteKnapsack(hookValues, hookWeights, 17)
	called := false
	hook := func(x []float64) ([]float64, bool) {
		called = true
		fixed := make([]float64, len(x))
		for i, v := range x {
			if v > 0.99 { // conservative rounding keeps the capacity feasible
				fixed[i] = 1
			}
		}
		return fixed, true
	}
	res, err := Solve(prob, Options{Rounding: hook})
	if err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Error("rounding hook never called")
	}
	if res.Status != Optimal || math.Abs(res.Objective-want) > 1e-6 {
		t.Errorf("got %v obj %g, want optimal %g", res.Status, res.Objective, want)
	}
}

// TestRoundingHookEndsRootSearch: a hook that returns the optimum lets a
// one-node search end on it. The problem mixes a knapsack with a
// continuous column y that draws 40 capacity per unit and a column f
// fixed at 1, so the candidate is checked against a mixed row with a
// pinned term.
func TestRoundingHookEndsRootSearch(t *testing.T) {
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

	called := false
	res, err := Solve(prob, Options{MaxNodes: 1, Rounding: func([]float64) ([]float64, bool) {
		called = true
		return append([]float64(nil), bestX...), true
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Fatal("rounding hook never called at the root")
	}
	if res.X == nil || !numeric.Close(res.Objective, best, 1e-12) {
		t.Fatalf("root candidate not adopted: status %v obj %g, want %g", res.Status, res.Objective, best)
	}
	for v := range bestX {
		if !numeric.AlmostEqual(res.X[v], bestX[v]) {
			t.Errorf("x[%d] = %g, candidate %g", v, res.X[v], bestX[v])
		}
	}
}

// TestRoundingCandidateChecks: a rounding-hook candidate that misses the
// node relaxation in one way — one row broken by 1e-6 relative, integrality,
// the length, or one branching fix — is never offered. On the hook
// knapsack's items the capacity is 18/(1+1e-6), so the row candidate, the
// items {0, 2, 3, 4, 5} of weight 18, breaks it by 1e-6 relative and
// scores 40, above the optimum 38. The integrality candidate is the
// midpoint of the optima {0, 2, 3, 4, 7} and {0, 1, 3, 4}: it scores 38
// and meets every row, so only the integrality check rejects it, and accepted at the root it would
// prune the tree early. A short vector would index past its end. So a
// search that skipped one check would show it; such a search must
// retrace the hook-free search exactly. The branching-fix candidate is
// the optimum {0, 2, 3, 4, 7}, feasible at the root, so it is checked
// against a node below the fix x_2 <= 0.
func TestRoundingCandidateChecks(t *testing.T) {
	capacity := 18 / (1 + 1e-6)
	prob := knapsackProblem(hookValues, hookWeights, capacity)
	ref, err := Solve(prob, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Status != Optimal || !numeric.AlmostEqual(ref.Objective, 38) {
		t.Fatalf("reference search: %v obj %g, want optimal 38", ref.Status, ref.Objective)
	}
	opt := []float64{1, 0, 1, 1, 1, 0, 0, 1, 0, 0}
	for _, c := range []struct {
		name string
		x    []float64
	}{
		{"row", []float64{1, 0, 1, 1, 1, 1, 0, 0, 0, 0}},
		{"integrality", []float64{1, 0.5, 0.5, 1, 1, 0, 0, 0.5, 0, 0}},
		{"length", []float64{0, 1}},
	} {
		called := false
		hook := func([]float64) ([]float64, bool) {
			called = true
			return append([]float64(nil), c.x...), true
		}
		res, err := Solve(prob, Options{Rounding: hook})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !called {
			t.Fatalf("%s: rounding hook never called", c.name)
		}
		if res.Nodes != ref.Nodes || !sameSolution(ref, res) {
			t.Errorf("%s: candidate offered: obj %g after %d nodes, hook-free search %g after %d",
				c.name, res.Objective, res.Nodes, ref.Objective, ref.Nodes)
		}
	}

	s := &searcher{prob: prob}
	if obj, ok := s.candidate(&node{}, opt); !ok || !numeric.AlmostEqual(obj, 38) {
		t.Fatalf("optimum rejected at the root: ok=%v obj %g", ok, obj)
	}
	below := &node{depth: 1, fixes: &fixChain{f: fix{Var: 2, Sense: lp.LE, Val: 0}}}
	if _, ok := s.candidate(below, opt); ok {
		t.Error("branching-fix: candidate with x_2 = 1 accepted below the fix x_2 <= 0")
	}
}

func TestStatusString(t *testing.T) {
	for _, s := range []Status{Optimal, Feasible, NoIncumbent, Infeasible, Status(42)} {
		if s.String() == "" {
			t.Error("empty status string")
		}
	}
}

// TestInheritFallbackAccounting pins Result.InheritFallbacks on a fixed
// knapsack search: under row-free bound branching every child keeps its
// parent's basis dimension, so every warm solve adopts the parent's
// factors and none falls back.
func TestInheritFallbackAccounting(t *testing.T) {
	p := knapsackProblem(hookValues, hookWeights, 17)
	want := bruteKnapsack(hookValues, hookWeights, 17)

	res, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal || math.Abs(res.Objective-want) > 1e-6 {
		t.Fatalf("status %v objective %g, want optimal %g", res.Status, res.Objective, want)
	}
	if res.WarmSolves == 0 {
		t.Fatal("search ran without warm solves; instance too easy to pin accounting")
	}
	if res.InheritFallbacks != 0 {
		t.Errorf("InheritFallbacks = %d, want 0 (WarmSolves = %d)", res.InheritFallbacks, res.WarmSolves)
	}

	// Warm starts off: nothing to fall back from.
	res, err = Solve(p, Options{DisableWarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.WarmSolves != 0 || res.InheritFallbacks != 0 {
		t.Errorf("cold-only search counted %d warm solves, %d fallbacks",
			res.WarmSolves, res.InheritFallbacks)
	}
}
