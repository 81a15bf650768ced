package mip

// Search tests: the differential corpus holding the search to a
// brute-force oracle (oracle_test.go), and the gap and dual-bound
// reporting.

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/lp"
	"repro/internal/numeric"
	"repro/internal/rng"
)

// --- differential corpus --------------------------------------------------

// corpusProblem builds the i-th corpus instance: a deterministic mix of
// plain knapsacks, GUB-structured assignment knapsacks and VUB-linked
// fixed-charge problems, sized for exhaustive or LP-verified checking.
func corpusProblem(i int) *Problem {
	src := rng.NewReplicate(31, "bc-corpus", i)
	switch i % 3 {
	case 0: // plain 0/1 knapsack, brute-forceable
		n := 10 + src.Intn(5)
		values := make([]float64, n)
		weights := make([]float64, n)
		var total float64
		for j := range values {
			values[j] = src.Uniform(1, 100)
			weights[j] = src.Uniform(1, 50)
			total += weights[j]
		}
		return knapsackProblem(values, weights, total*src.Uniform(0.3, 0.6))
	case 1: // assignment knapsack: g groups × 3 choices, shared capacity
		g := 3 + src.Intn(3)
		n := g * 3
		p := lp.NewProblem(n)
		var capTerms []lp.Term
		var total float64
		for j := 0; j < n; j++ {
			p.SetObjCoef(j, src.Uniform(1, 100))
			p.SetBounds(j, 0, 1)
			w := src.Uniform(1, 50)
			total += w
			capTerms = append(capTerms, lp.Term{Var: j, Coef: w})
		}
		for k := 0; k < g; k++ {
			p.AddConstraint([]lp.Term{
				{Var: 3 * k, Coef: 1}, {Var: 3*k + 1, Coef: 1}, {Var: 3*k + 2, Coef: 1},
			}, lp.EQ, 1)
		}
		p.AddConstraint(capTerms, lp.LE, total*src.Uniform(0.2, 0.4))
		ints := make([]int, n)
		for j := range ints {
			ints[j] = j
		}
		return &Problem{LP: p, Integers: ints}
	default: // fixed-charge: continuous t_j <= u_j x_j, budget on Σ t
		k := 4 + src.Intn(3)
		p := lp.NewProblem(2 * k) // t_0..t_{k-1}, x_0..x_{k-1}
		var budget []lp.Term
		var fixTerms []lp.Term
		for j := 0; j < k; j++ {
			p.SetObjCoef(j, src.Uniform(1, 10))    // reward per unit of t
			p.SetObjCoef(k+j, -src.Uniform(5, 40)) // opening cost
			u := src.Uniform(2, 8)
			p.SetBounds(j, 0, u)
			p.SetBounds(k+j, 0, 1)
			bigU := u * src.Uniform(1.5, 4) // deliberately weak link
			p.AddConstraint([]lp.Term{
				{Var: j, Coef: 1}, {Var: k + j, Coef: -bigU},
			}, lp.LE, 0)
			budget = append(budget, lp.Term{Var: j, Coef: 1})
			fixTerms = append(fixTerms, lp.Term{Var: k + j, Coef: src.Uniform(1, 3)})
		}
		p.AddConstraint(budget, lp.LE, src.Uniform(3, 10))
		p.AddConstraint(fixTerms, lp.LE, src.Uniform(2, 6))
		ints := make([]int, k)
		for j := range ints {
			ints[j] = k + j
		}
		return &Problem{LP: p, Integers: ints}
	}
}

// checkIncumbentFeasible verifies integrality of the integer variables and
// every constraint row at the returned incumbent.
func checkIncumbentFeasible(t *testing.T, label string, prob *Problem, res *Result) {
	t.Helper()
	for _, v := range prob.Integers {
		if f := math.Abs(res.X[v] - math.Round(res.X[v])); f > 1e-6 {
			t.Fatalf("%s: x[%d] = %g not integral", label, v, res.X[v])
		}
	}
	for i := 0; i < prob.LP.NumConstraints(); i++ {
		terms, sense, rhs := prob.LP.Constraint(i)
		var act float64
		for _, tm := range terms {
			act += tm.Coef * res.X[tm.Var]
		}
		tol := 1e-6 * (1 + math.Abs(rhs))
		switch sense {
		case lp.LE:
			if act > rhs+tol {
				t.Fatalf("%s: row %d violated: %g > %g", label, i, act, rhs)
			}
		case lp.GE:
			if act < rhs-tol {
				t.Fatalf("%s: row %d violated: %g < %g", label, i, act, rhs)
			}
		case lp.EQ:
			if math.Abs(act-rhs) > tol {
				t.Fatalf("%s: row %d violated: %g != %g", label, i, act, rhs)
			}
		}
	}
}

// bruteOf flattens p into the plain form of the brute-force oracle
// (oracle_test.go), which reads no lp type.
func bruteOf(p *Problem) *bruteMIP {
	n := p.LP.NumVars()
	b := &bruteMIP{
		obj: make([]float64, n), lo: make([]float64, n), hi: make([]float64, n),
		ints: p.Integers,
	}
	for v := 0; v < n; v++ {
		b.obj[v] = p.LP.ObjCoef(v)
		b.lo[v], b.hi[v] = p.LP.Bounds(v)
	}
	for i := 0; i < p.LP.NumConstraints(); i++ {
		terms, sense, rhs := p.LP.Constraint(i)
		r := bruteRow{rhs: rhs}
		switch sense {
		case lp.LE:
			r.sense = -1
		case lp.GE:
			r.sense = 1
		}
		for _, tm := range terms {
			r.terms = append(r.terms, bruteTerm{v: tm.Var, a: tm.Coef})
		}
		b.rows = append(b.rows, r)
	}
	return b
}

// corpusSettings are the search settings the corpus oracle checks: the
// default search and its cold-node variant.
var corpusSettings = []struct {
	name string
	opts Options
}{
	{"default", Options{}},
	{"cold", Options{DisableWarmStart: true}},
}

// checkCorpusInstance solves corpus instance i under every corpus setting
// and holds each result to the brute-force oracle: the oracle's optimum
// within 1e-12 relative, or a proof of infeasibility where the oracle
// found no integer point, plus a feasible incumbent, a closed gap and a
// valid dual bound.
func checkCorpusInstance(t *testing.T, i int) {
	t.Helper()
	prob := corpusProblem(i)
	best, feasible := bruteSolve(bruteOf(prob))
	for _, st := range corpusSettings {
		res, err := Solve(prob, st.opts)
		if err != nil {
			t.Fatalf("instance %d %s: %v", i, st.name, err)
		}
		label := fmt.Sprintf("instance %d %s", i, st.name)
		if !feasible {
			if res.Status != Infeasible {
				t.Fatalf("%s: status %v, the oracle found no integer point", label, res.Status)
			}
			continue
		}
		if res.Status != Optimal {
			t.Fatalf("%s: status %v, want optimal", label, res.Status)
		}
		if !numeric.Close(res.Objective, best, 1e-12) {
			t.Fatalf("%s: objective %.17g, oracle %.17g", label, res.Objective, best)
		}
		checkIncumbentFeasible(t, label, prob, res)
		if res.Gap > 1e-6*(1+math.Abs(res.Objective)) {
			t.Fatalf("%s: optimal with gap %g", label, res.Gap)
		}
		if res.Bound < res.Objective-1e-9 {
			t.Fatalf("%s: dual bound %g below objective %g", label, res.Bound, res.Objective)
		}
	}
}

// TestBranchAndCutDifferentialCorpus holds every corpus setting to the
// brute-force oracle on all 240 corpus instances.
func TestBranchAndCutDifferentialCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus test skipped in -short mode")
	}
	for i := 0; i < 240; i++ {
		checkCorpusInstance(t, i)
	}
}

// TestBranchAndCutSmallCorpusShort is the -short stand-in: the first eight
// instances.
func TestBranchAndCutSmallCorpusShort(t *testing.T) {
	for i := 0; i < 8; i++ {
		checkCorpusInstance(t, i)
	}
}

// clusteredKnapsack is a knapsack family whose weights cluster around a
// third of the capacity, so the relaxation stays fractional and the tree
// branches.
func clusteredKnapsack(trial int) *Problem {
	src := rng.NewReplicate(47, "cut-heavy", trial)
	n := 14 + src.Intn(4)
	values := make([]float64, n)
	weights := make([]float64, n)
	var total float64
	for i := range values {
		values[i] = src.Uniform(10, 100)
		weights[i] = src.Uniform(20, 30)
		total += weights[i]
	}
	return knapsackProblem(values, weights, total*0.35)
}

// TestGapAndDualBound: a node cap that stops the search early leaves a
// Feasible status, an honest Gap and a valid dual bound (Result.Bound); a
// run to completion reports Gap 0 at the optimum.
func TestGapAndDualBound(t *testing.T) {
	prob := clusteredKnapsack(3)
	exact, err := Solve(prob, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if exact.Status != Optimal {
		t.Fatalf("status %v", exact.Status)
	}
	if exact.Gap != 0 {
		t.Errorf("optimal Gap = %g, want 0", exact.Gap)
	}
	if math.Abs(exact.Bound-exact.Objective) > 1e-9*(1+math.Abs(exact.Objective)) {
		t.Errorf("optimal Bound %.12g != Objective %.12g", exact.Bound, exact.Objective)
	}

	// The full search takes 54 nodes; 50 stop it with an incumbent in hand.
	early, err := Solve(prob, Options{MaxNodes: 50})
	if err != nil {
		t.Fatal(err)
	}
	if early.Status != Feasible {
		t.Fatalf("capped run status %v, want feasible", early.Status)
	}
	if early.Bound < exact.Objective-1e-9 {
		t.Errorf("early-stop Bound %.12g below true optimum %.12g", early.Bound, exact.Objective)
	}
	if early.Objective > exact.Objective+1e-9 {
		t.Errorf("early incumbent %.12g above optimum %.12g", early.Objective, exact.Objective)
	}
	if want := math.Max(0, early.Bound-early.Objective); math.Float64bits(early.Gap) != math.Float64bits(want) {
		t.Errorf("early-stop Gap %.17g, want Bound - Objective = %.17g", early.Gap, want)
	}
}
