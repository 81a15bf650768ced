package mip

// Branch-and-cut tests: the separator's cut families, the differential
// corpus holding the search to a brute-force oracle (oracle_test.go), and
// the row-accounting guarantees when cut rows are appended and removed.

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/lp"
	"repro/internal/numeric"
	"repro/internal/rng"
)

// --- separator unit tests -------------------------------------------------

// binKnapLP builds max Σ v x s.t. Σ w x <= cap with x binary encoded as
// x <= 1 rows (the separator must fold those into effective bounds).
func binKnapLP(values, weights []float64, capacity float64) *Problem {
	return knapsackProblem(values, weights, capacity)
}

func TestSeparatorCoverCut(t *testing.T) {
	// Three items of weight 3, capacity 5: any two overflow, so the
	// extended cover is x0+x1+x2 <= 1.
	p := binKnapLP([]float64{1, 1, 1}, []float64{3, 3, 3}, 5)
	sep := newSeparator(p.LP, p.Integers, nil)
	if len(sep.knaps) != 1 {
		t.Fatalf("knapsack rows detected = %d, want 1", len(sep.knaps))
	}
	for v := 0; v < 3; v++ {
		if !sep.binary[v] {
			t.Fatalf("x%d not recognised as binary (x <= 1 is a row, not a box)", v)
		}
	}
	x := []float64{0.55, 0.55, 0.55} // feasible for the row (4.95 <= 5)
	cuts := sep.separate(x, 8)
	if len(cuts) != 1 {
		t.Fatalf("cuts = %d, want 1 cover cut", len(cuts))
	}
	c := cuts[0]
	//lint:ignore floatcmp the separator assigns the exact integer literal |C|-1
	if len(c.terms) != 3 || c.rhs != 1 {
		t.Fatalf("cover cut = %+v, want x0+x1+x2 <= 1", c)
	}
	var lhs float64
	for _, tm := range c.terms {
		//lint:ignore floatcmp cover coefficients are the exact literal 1
		if tm.Coef != 1 {
			t.Fatalf("cover coefficient %g, want 1", tm.Coef)
		}
		lhs += x[tm.Var]
	}
	if lhs <= c.rhs {
		t.Fatalf("emitted cut not violated at x: lhs %g rhs %g", lhs, c.rhs)
	}
}

func TestSeparatorComplementedCover(t *testing.T) {
	// -3 y0 - 3 y1 - 3 y2 >= -5  ==  3 y0 + 3 y1 + 3 y2 <= 5 after the GE
	// negation; the coefficients stay positive so this exercises the GE
	// path, while a genuinely negative LE coefficient exercises
	// complementation: 3 y0 + 3 y1 - 3 y2 <= 2 has the binary relaxation
	// 3 y0 + 3 y1 + 3 y2'' <= 5 with y2'' = 1 - y2.
	p := lp.NewProblem(3)
	for i := 0; i < 3; i++ {
		p.SetObjCoef(i, 1)
		p.SetBounds(i, 0, 1)
	}
	p.AddConstraint([]lp.Term{
		{Var: 0, Coef: 3}, {Var: 1, Coef: 3}, {Var: 2, Coef: -3},
	}, lp.LE, 2)
	sep := newSeparator(p, []int{0, 1, 2}, nil)
	if len(sep.knaps) != 1 {
		t.Fatalf("knapsack rows detected = %d, want 1", len(sep.knaps))
	}
	kr := sep.knaps[0]
	if kr.pure {
		t.Fatal("row with a negative binary coefficient marked pure")
	}
	// y = (0.55, 0.55, 0.45): row activity 1.95 <= 2 feasible, but
	// y'' = (0.55, 0.55, 0.55) violates the cover y0 + y1 + y2'' <= 1,
	// i.e. y0 + y1 - y2 <= 0.
	cuts := sep.separate([]float64{0.55, 0.55, 0.45}, 8)
	if len(cuts) != 1 {
		t.Fatalf("cuts = %d, want 1", len(cuts))
	}
	c := cuts[0]
	if c.rhs != 0 {
		t.Fatalf("complemented cover rhs = %g, want 0 (= |C|-1 shifted by one complement)", c.rhs)
	}
	var neg int
	for _, tm := range c.terms {
		//lint:ignore floatcmp complemented terms carry the exact literal -1
		if tm.Coef == -1 {
			neg++
		}
	}
	if neg != 1 {
		t.Fatalf("complemented cover has %d negative terms, want exactly 1", neg)
	}
}

func TestSeparatorGUBCover(t *testing.T) {
	// Two assignment groups {0,1} and {2,3} (one-of-each GUB rows) sharing
	// a knapsack 3 y0 + 3 y1 + 3 y2 + 3 y3 <= 5. The plain cover over the
	// two per-group representatives lifts to all four variables with
	// rhs 1 — stronger than the four-variable plain cover (rhs 1 needs a
	// 2-cover; the plain greedy cover gets the same rhs here, so assert
	// the GUB cut exists and is group-lifted).
	p := lp.NewProblem(4)
	for i := 0; i < 4; i++ {
		p.SetObjCoef(i, 1)
		p.SetBounds(i, 0, 1)
	}
	p.AddConstraint([]lp.Term{{Var: 0, Coef: 1}, {Var: 1, Coef: 1}}, lp.EQ, 1)
	p.AddConstraint([]lp.Term{{Var: 2, Coef: 1}, {Var: 3, Coef: 1}}, lp.EQ, 1)
	p.AddConstraint([]lp.Term{
		{Var: 0, Coef: 3}, {Var: 1, Coef: 3}, {Var: 2, Coef: 3}, {Var: 3, Coef: 3},
	}, lp.LE, 5)
	sep := newSeparator(p, []int{0, 1, 2, 3}, nil)
	if sep.gubOf[0] != sep.gubOf[1] || sep.gubOf[2] != sep.gubOf[3] ||
		sep.gubOf[0] == sep.gubOf[2] || sep.gubOf[0] == -1 {
		t.Fatalf("GUB groups = %v, want {0,1} and {2,3}", sep.gubOf)
	}
	cuts := sep.separate([]float64{0.45, 0.45, 0.45, 0.45}, 8)
	if len(cuts) == 0 {
		t.Fatal("no cuts at a point violating the GUB cover")
	}
	// The top cut must be the lifted 4-variable rhs-1 inequality.
	c := cuts[0]
	//lint:ignore floatcmp the separator assigns the exact integer literal 1
	if len(c.terms) != 4 || c.rhs != 1 {
		t.Fatalf("top cut = %+v, want y0+y1+y2+y3 <= 1", c)
	}
}

func TestSeparatorVUBStrengthening(t *testing.T) {
	// t <= 10 x (a VUB row) with box t <= 4: the strengthened link
	// t <= 4 x cuts points the weak row admits. Detected both from the
	// builder hint and the generic two-term-row scan.
	build := func() *lp.Problem {
		p := lp.NewProblem(2)
		p.SetObjCoef(0, 1)
		p.SetBounds(0, 0, 4)
		p.SetBounds(1, 0, 1)
		p.AddConstraint([]lp.Term{{Var: 0, Coef: 1}, {Var: 1, Coef: -10}}, lp.LE, 0)
		return p
	}
	for _, tc := range []struct {
		name string
		hint *Structure
	}{
		{"scan", nil},
		{"hint", &Structure{VUBs: []VUB{{Cont: 0, Bin: 1, U: 10}}}},
	} {
		sep := newSeparator(build(), []int{1}, tc.hint)
		if len(sep.vubs) != 1 {
			t.Fatalf("%s: VUBs detected = %d, want 1", tc.name, len(sep.vubs))
		}
		if vb := sep.vubs[0]; vb.Cont != 0 || vb.Bin != 1 || math.Abs(vb.U-4) > 1e-12 {
			t.Fatalf("%s: strengthened VUB = %+v, want {Cont:0 Bin:1 U:4}", tc.name, vb)
		}
		// t=4, x=0.4 satisfies t <= 10x but violates t <= 4x.
		cuts := sep.separate([]float64{4, 0.4}, 8)
		if len(cuts) != 1 {
			t.Fatalf("%s: cuts = %d, want 1", tc.name, len(cuts))
		}
		c := cuts[0]
		if c.rhs != 0 || len(c.terms) != 2 {
			t.Fatalf("%s: VUB cut = %+v", tc.name, c)
		}
	}
	// No strengthening when the box is not tighter than the link.
	p := build()
	p.SetBounds(0, 0, 10)
	if sep := newSeparator(p, []int{1}, nil); len(sep.vubs) != 0 {
		t.Fatalf("VUB strengthened with u >= U: %+v", sep.vubs)
	}
}

func TestSeparatorSkipsContinuousKnapsack(t *testing.T) {
	// The DSCT-EA energy row shape: all-continuous <= row. No binary
	// items, so no knapsack relaxation and no cuts — the separator must
	// report inactive rather than emit something bogus.
	p := lp.NewProblem(3)
	for i := 0; i < 3; i++ {
		p.SetObjCoef(i, 1)
		p.SetBounds(i, 0, 100)
	}
	p.AddConstraint([]lp.Term{
		{Var: 0, Coef: 2}, {Var: 1, Coef: 3}, {Var: 2, Coef: 5},
	}, lp.LE, 50)
	sep := newSeparator(p, nil, nil)
	if len(sep.knaps) > 0 || len(sep.vubs) > 0 {
		t.Fatalf("separator found structure on a continuous-only problem: %d knaps, %d vubs",
			len(sep.knaps), len(sep.vubs))
	}
	if cuts := sep.separate([]float64{10, 10, 10}, cutsPerRound); len(cuts) > 0 {
		t.Fatalf("separator emitted %d cuts on a continuous-only problem", len(cuts))
	}
}

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
// default search and its parallel, cold-node and root-presolve variants.
// The corpus is below PresolveAuto's row threshold, so only PresolveOn
// runs the search in reduced space.
var corpusSettings = []struct {
	name string
	opts Options
}{
	{"default", Options{}},
	{"workers=4", Options{Workers: 4}},
	{"cold", Options{DisableWarmStart: true}},
	{"presolve", Options{LP: lp.Options{Presolve: lp.PresolveOn}}},
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

// --- cut-row accounting ---------------------------------------------------

// cutHeavyProblem is a knapsack family where root cuts reliably fire
// (weights clustered around half the capacity).
func cutHeavyProblem(trial int) *Problem {
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

// TestCutRowAccounting: on a cut-heavy instance the root loop must report
// the rounds it ran and keep no more rows than those rounds appended.
func TestCutRowAccounting(t *testing.T) {
	var prob *Problem
	var root *Result
	trial := 0
	for ; trial < 20; trial++ {
		prob = cutHeavyProblem(trial)
		r, err := Solve(prob, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if r.Cuts > 0 && r.Nodes > 4 {
			root = r
			break
		}
	}
	if root == nil {
		t.Fatal("no cut-heavy trial produced root cuts; separator dead?")
	}
	if root.CutRounds == 0 || root.Cuts > root.CutRounds*cutsPerRound {
		t.Errorf("%d kept cuts from %d rounds of at most %d", root.Cuts, root.CutRounds, cutsPerRound)
	}
}

// TestGapAndDualBound: RelGap terminates early with a Feasible status, an
// honest Gap and a valid dual bound (Result.Bound); a run to completion
// reports Gap 0 at the optimum.
func TestGapAndDualBound(t *testing.T) {
	prob := cutHeavyProblem(3)
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

	loose, err := Solve(prob, Options{RelGap: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	switch loose.Status {
	case Optimal: // tree collapsed before the gap check fired — fine
	case Feasible:
		if loose.Gap > 0.5*(1+math.Abs(loose.Objective))+1e-9 {
			t.Errorf("RelGap stop with Gap %g above tolerance", loose.Gap)
		}
		if loose.Bound < exact.Objective-1e-9 {
			t.Errorf("early-stop Bound %.12g below true optimum %.12g", loose.Bound, exact.Objective)
		}
	default:
		t.Fatalf("RelGap run status %v", loose.Status)
	}
	if loose.Objective > exact.Objective+1e-9 {
		t.Errorf("early incumbent %.12g above optimum %.12g", loose.Objective, exact.Objective)
	}
}
