package lp

// Presolve/postsolve test suite. The differential half runs the layer
// against the plain solve over the shared corpora — presolve on and off
// must agree on status, objective and the full solution vector, the
// recovered duals must pass Certify against the ORIGINAL problem, and
// the restored Basis must warm-start children. The table-driven half
// pins each reduction (empty row, singleton row, fixed column, empty
// column, infeasibility by tightening) on hand-computed instances where
// the postsolved X and duals are known exactly.

import (
	"math"
	"strconv"
	"testing"

	"repro/internal/numeric"
	"repro/internal/rng"
)

// presolveXTol is the on/off agreement criterion. It is looser than the
// pricing differential's: bound tightening installs box edges that are
// numerically coincident with the rows they derive from, so the reduced
// problem's optimal vertex can split into a near-degenerate pair whose
// members differ by O(presolveTol) — either member is a legitimate
// answer within the solver's own feasibility tolerance.
const presolveXTol = 1e-6

// presolveDifferential runs one instance through the on/off agreement
// battery: Solve, SolveBasis, both dual entry points with certificates,
// and a warm-started child from the restored basis.
func presolveDifferential(t *testing.T, g *genLP, s *rng.Source) {
	t.Helper()
	off, err := Solve(g.p, Options{Presolve: PresolveOff})
	if err != nil {
		t.Fatal(err)
	}
	on, err := Solve(g.p, Options{Presolve: PresolveOn})
	if err != nil {
		t.Fatal(err)
	}
	assertAgreeXWithin(t, "solve", off, on, presolveXTol)

	bon, bs, err := SolveBasis(g.p, Options{Presolve: PresolveOn})
	if err != nil {
		t.Fatal(err)
	}
	assertAgreeXWithin(t, "basis", off, bon, presolveXTol)

	don, err := SolveWithDuals(g.p, Options{Presolve: PresolveOn})
	if err != nil {
		t.Fatal(err)
	}
	assertAgreeXWithin(t, "duals", off, &don.Solution, presolveXTol)
	if don.Status == Optimal {
		if err := Certify(g.p, don.X, don.Duals, 1e-6); err != nil {
			t.Fatalf("certificate after postsolve: %v", err)
		}
	}
	bdon, bbs, err := SolveBasisWithDuals(g.p, Options{Presolve: PresolveOn})
	if err != nil {
		t.Fatal(err)
	}
	assertAgreeXWithin(t, "basis-duals", off, &bdon.Solution, presolveXTol)
	if bdon.Status == Optimal {
		if err := Certify(g.p, bdon.X, bdon.Duals, 1e-6); err != nil {
			t.Fatalf("basis certificate after postsolve: %v", err)
		}
		if bbs == nil {
			t.Fatal("optimal presolved basis solve returned no basis")
		}
	}

	// The restored basis indexes the original rows, so it must warm-start
	// a bound-row child exactly like a direct solve's basis would.
	if off.Status != Optimal || bs == nil {
		return
	}
	v := s.Intn(g.p.NumVars())
	child := g.p.Clone()
	child.AddConstraint([]Term{{Var: v, Coef: 1}}, LE, math.Floor(off.X[v]))
	warm, _, err := SolveFrom(child, bs, Options{})
	if err != nil {
		t.Fatalf("warm from restored basis: %v", err)
	}
	cold, err := Solve(child, Options{Presolve: PresolveOff})
	if err != nil {
		t.Fatal(err)
	}
	assertAgreeXWithin(t, "warm-restored", cold, warm, presolveXTol)
}

// TestDifferentialPresolve: presolve on vs off over the full 240-instance
// corpus, on both the rows-only family and the boxed family (whose fixed
// columns and singleton box rows are exactly the reductions' food).
func TestDifferentialPresolve(t *testing.T) {
	for i := 0; i < corpusSize; i++ {
		i := i
		t.Run(strconv.Itoa(i), func(t *testing.T) {
			t.Parallel()
			s := rng.NewReplicate(7, "lp-differential-presolve", i)
			t.Run("rows", func(t *testing.T) {
				presolveDifferential(t, corpusInstance(i), s)
			})
			t.Run("boxed", func(t *testing.T) {
				n := 1 + s.Intn(7)
				m := s.Intn(10)
				presolveDifferential(t, generateBoundedLP(s, n, m), s)
			})
		})
	}
}

// TestPresolveDegenerateStaircase: the collapsed-deadline staircase's
// length-1 prefix rows are singletons, so presolve bites hard on a
// massively degenerate instance — on/off must still agree on the known
// optimum and the recovered duals must certify.
func TestPresolveDegenerateStaircase(t *testing.T) {
	p := degenerateStaircaseLP(30, 3)
	want := 3.0
	on, err := Solve(p, Options{Presolve: PresolveOn})
	if err != nil {
		t.Fatal(err)
	}
	if on.Status != Optimal || math.Abs(on.Objective-want) > 1e-9 {
		t.Fatalf("presolved: status %v objective %g, want Optimal %g", on.Status, on.Objective, want)
	}
	ds, err := SolveWithDuals(p, Options{Presolve: PresolveOn})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Status != Optimal {
		t.Fatalf("duals: status %v", ds.Status)
	}
	if err := Certify(p, ds.X, ds.Duals, 1e-6); err != nil {
		t.Fatalf("degenerate certificate after postsolve: %v", err)
	}
}

// presolveCase is one hand-computed reduction scenario.
type presolveCase struct {
	name       string
	build      func() *Problem
	wantStatus Status
	// fallback marks shapes the layer hands back to the core unreduced.
	fallback bool
	// Reduced dimensions after presolveProblem (checked when not
	// fallback and the status is Optimal).
	wantRows, wantCols int
	wantX              []float64 // nil: skip
	wantObj            float64
	wantDuals          []float64 // nil: skip the dual recovery check
}

var presolveCases = []presolveCase{
	{
		// 0·x <= 2 is vacuous; x <= 3 becomes a bound; the then-empty
		// column rests at its best bound. Everything is decided without a
		// core solve, and the singleton row's dual is recovered from the
		// column's residual reduced cost.
		name: "empty-row-feasible",
		build: func() *Problem {
			p := NewProblem(1)
			p.SetObjCoef(0, 1)
			p.AddConstraint(nil, LE, 2)
			p.AddConstraint([]Term{{Var: 0, Coef: 1}}, LE, 3)
			return p
		},
		wantStatus: Optimal,
		wantRows:   0, wantCols: 0,
		wantX: []float64{3}, wantObj: 3,
		wantDuals: []float64{0, 1},
	},
	{
		// 0·x >= 1 is an infeasibility certificate on its own.
		name: "empty-row-infeasible",
		build: func() *Problem {
			p := NewProblem(1)
			p.SetObjCoef(0, 1)
			p.AddConstraint(nil, GE, 1)
			return p
		},
		wantStatus: Infeasible,
	},
	{
		// The singleton row becomes the bound x0 <= 3; the two-column row
		// survives into the core. Optimum (3, 2): both rows bind, so both
		// duals are 1 — the eliminated row's recovered from the residual
		// reduced cost 2 − y1 of its column.
		name: "singleton-row-bound",
		build: func() *Problem {
			p := NewProblem(2)
			p.SetObjCoef(0, 2)
			p.SetObjCoef(1, 1)
			p.AddConstraint([]Term{{Var: 0, Coef: 1}}, LE, 3)
			p.AddConstraint([]Term{{Var: 0, Coef: 1}, {Var: 1, Coef: 1}}, LE, 5)
			return p
		},
		wantStatus: Optimal,
		wantRows:   1, wantCols: 2,
		wantX: []float64{3, 2}, wantObj: 8,
		wantDuals: []float64{1, 1},
	},
	{
		// x0 = 7 pinned by an EQ singleton outside the box [0, 5].
		name: "singleton-eq-infeasible",
		build: func() *Problem {
			p := NewProblem(1)
			p.SetObjCoef(0, 1)
			p.SetBounds(0, 0, 5)
			p.AddConstraint([]Term{{Var: 0, Coef: 1}}, EQ, 7)
			return p
		},
		wantStatus: Infeasible,
	},
	{
		// Two singletons squeeze the box empty beyond tolerance.
		name: "singleton-conflict-infeasible",
		build: func() *Problem {
			p := NewProblem(1)
			p.SetObjCoef(0, 1)
			p.AddConstraint([]Term{{Var: 0, Coef: 1}}, LE, 1)
			p.AddConstraint([]Term{{Var: 0, Coef: 1}}, GE, 2)
			return p
		},
		wantStatus: Infeasible,
	},
	{
		// x0 pinned at 2 substitutes into both rows; the leftovers become
		// a bound and an empty column at its preferred bound. Row 0 ends
		// slack (5 < 6) so its recovered dual stays 0; row 1 binds and
		// takes x1's residual reduced cost 1. x0's own residual is priced
		// by its zero-width box, not a row.
		name: "fixed-column",
		build: func() *Problem {
			p := NewProblem(2)
			p.SetObjCoef(0, 1)
			p.SetObjCoef(1, 1)
			p.SetBounds(0, 2, 2)
			p.AddConstraint([]Term{{Var: 0, Coef: 1}, {Var: 1, Coef: 1}}, LE, 6)
			p.AddConstraint([]Term{{Var: 1, Coef: 1}}, LE, 3)
			return p
		},
		wantStatus: Optimal,
		wantRows:   0, wantCols: 0,
		wantX: []float64{2, 3}, wantObj: 5,
		wantDuals: []float64{0, 1},
	},
	{
		// After the singleton row dissolves, both columns are empty: the
		// profitable one rests at its upper bound, the costly one at its
		// lower. The residuals are absorbed by the finite boxes, so every
		// dual is 0 and Certify balances through the bound multipliers.
		name: "empty-columns",
		build: func() *Problem {
			p := NewProblem(2)
			p.SetObjCoef(0, 2)
			p.SetObjCoef(1, -1)
			p.SetBounds(0, 0, 4)
			p.SetBounds(1, 1, 5)
			p.AddConstraint([]Term{{Var: 0, Coef: 1}}, LE, 10)
			return p
		},
		wantStatus: Optimal,
		wantRows:   0, wantCols: 0,
		wantX: []float64{4, 1}, wantObj: 7,
		wantDuals: []float64{0},
	},
	{
		// x0 is profitable, row-free and unbounded above: presolve must
		// NOT decide it — the layer falls back and the core reports the
		// unbounded ray.
		name: "empty-column-unbounded",
		build: func() *Problem {
			p := NewProblem(2)
			p.SetObjCoef(0, 1)
			p.AddConstraint([]Term{{Var: 1, Coef: 1}}, LE, 1)
			return p
		},
		wantStatus: Unbounded,
		fallback:   true,
	},
	{
		// Activity bounds prove x0 + x1 >= 10 impossible under the boxes
		// (max activity 5) without any elimination firing first.
		name: "tighten-infeasible",
		build: func() *Problem {
			p := NewProblem(2)
			p.SetObjCoef(0, 1)
			p.SetBounds(0, 0, 2)
			p.SetBounds(1, 0, 3)
			p.AddConstraint([]Term{{Var: 0, Coef: 1}, {Var: 1, Coef: 1}}, GE, 10)
			return p
		},
		wantStatus: Infeasible,
	},
}

func TestPresolveReductions(t *testing.T) {
	for _, tc := range presolveCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			p := tc.build()

			// White-box: the reduction outcome itself.
			ps := presolveProblem(p, nil, false)
			if tc.fallback {
				if !ps.fallback {
					t.Fatal("expected presolve fallback")
				}
			} else if tc.wantStatus == Infeasible {
				if ps.status != Infeasible {
					t.Fatalf("presolve status %v, want Infeasible", ps.status)
				}
			} else {
				if ps.fallback || ps.status != Optimal {
					t.Fatalf("presolve status %v fallback %v, want clean Optimal", ps.status, ps.fallback)
				}
				rows, cols := 0, 0
				if ps.reduced != nil {
					rows, cols = ps.reduced.NumConstraints(), ps.reduced.NumVars()
				}
				if rows != tc.wantRows || cols != tc.wantCols {
					t.Fatalf("reduced to %dx%d, want %dx%d", rows, cols, tc.wantRows, tc.wantCols)
				}
			}

			// Black-box: the full solve and the off cross-check.
			on, err := Solve(p, Options{Presolve: PresolveOn})
			if err != nil {
				t.Fatal(err)
			}
			if on.Status != tc.wantStatus {
				t.Fatalf("status %v, want %v", on.Status, tc.wantStatus)
			}
			off, err := Solve(p, Options{Presolve: PresolveOff})
			if err != nil {
				t.Fatal(err)
			}
			assertAgreeXWithin(t, "on-vs-off", off, on, presolveXTol)
			if tc.wantX != nil {
				for v, want := range tc.wantX {
					if !numeric.Close(on.X[v], want, 1e-9) {
						t.Errorf("x[%d] = %.17g, want %g", v, on.X[v], want)
					}
				}
				if !numeric.Close(on.Objective, tc.wantObj, 1e-9) {
					t.Errorf("objective = %.17g, want %g", on.Objective, tc.wantObj)
				}
			}

			// Dual recovery against the hand-computed multipliers, through
			// both dual entry points, each certified on the original data.
			if tc.wantDuals == nil {
				return
			}
			for _, ep := range []struct {
				name  string
				solve func() (*DualSolution, error)
			}{
				{"duals", func() (*DualSolution, error) {
					return SolveWithDuals(p, Options{Presolve: PresolveOn})
				}},
				{"basis", func() (*DualSolution, error) {
					ds, _, err := SolveBasisWithDuals(p, Options{Presolve: PresolveOn})
					return ds, err
				}},
			} {
				ds, err := ep.solve()
				if err != nil {
					t.Fatalf("%s: %v", ep.name, err)
				}
				if ds.Status != Optimal {
					t.Fatalf("%s: status %v", ep.name, ds.Status)
				}
				if err := Certify(p, ds.X, ds.Duals, 1e-6); err != nil {
					t.Fatalf("%s certificate: %v", ep.name, err)
				}
				for i, want := range tc.wantDuals {
					if !numeric.Close(ds.Duals[i], want, 1e-9) {
						t.Errorf("%s: y[%d] = %.17g, want %g", ep.name, i, ds.Duals[i], want)
					}
				}
			}
		})
	}
}

// TestPresolveScalingRoundTrip: a badly scaled instance must come out of
// presolve with power-of-two scales (exact unscaling), conditioned
// reduced coefficients, and answers identical to the unscaled solve.
func TestPresolveScalingRoundTrip(t *testing.T) {
	p := NewProblem(3)
	for v := 0; v < 3; v++ {
		p.SetObjCoef(v, 1)
		p.SetBounds(v, 0, 1)
	}
	p.AddConstraint([]Term{{Var: 0, Coef: 1e6}, {Var: 1, Coef: 4e6}}, LE, 4e6)
	p.AddConstraint([]Term{{Var: 1, Coef: 3e-5}, {Var: 2, Coef: 1e-5}}, LE, 6e-5)

	ps := presolveProblem(p, nil, false)
	if ps.fallback || ps.status != Optimal || ps.reduced == nil {
		t.Fatalf("presolve did not produce a reduced problem (status %v fallback %v)", ps.status, ps.fallback)
	}
	if ps.rowScale == nil || ps.colScale == nil {
		t.Fatal("badly scaled instance produced no scaling")
	}
	pow2 := func(s float64) bool {
		frac, _ := math.Frexp(s)
		//lint:ignore floatcmp power-of-two check: Frexp fraction is exactly 0.5 iff s is 2^k
		return frac == 0.5
	}
	for _, i := range ps.rows {
		if !pow2(ps.rowScale[i]) {
			t.Errorf("row scale %g is not a power of two", ps.rowScale[i])
		}
	}
	for _, j := range ps.cols {
		if !pow2(ps.colScale[j]) {
			t.Errorf("col scale %g is not a power of two", ps.colScale[j])
		}
	}
	// Geometric-mean equilibration must pull the 11-orders spread into a
	// narrow band around 1.
	for i := 0; i < ps.reduced.NumConstraints(); i++ {
		for _, tm := range ps.reduced.rowAt(i).terms {
			if a := math.Abs(tm.Coef); a < 1.0/16 || a > 16 {
				t.Errorf("reduced coefficient %g poorly conditioned", tm.Coef)
			}
		}
	}

	off, err := Solve(p, Options{Presolve: PresolveOff})
	if err != nil {
		t.Fatal(err)
	}
	on, err := Solve(p, Options{Presolve: PresolveOn})
	if err != nil {
		t.Fatal(err)
	}
	assertAgreeXWithin(t, "scaled", off, on, presolveXTol)
	ds, err := SolveWithDuals(p, Options{Presolve: PresolveOn})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Status != Optimal {
		t.Fatalf("duals: status %v", ds.Status)
	}
	if err := Certify(p, ds.X, ds.Duals, 1e-6); err != nil {
		t.Fatalf("scaled certificate: %v", err)
	}
}

// TestPow2Recip pins the scale rounding: g·pow2Recip(g) must land in
// [1/√2, √2), degenerate inputs map to 1.
func TestPow2Recip(t *testing.T) {
	for _, g := range []float64{1, 3, 0.7, 1e6, 1e-6, 2.5e-5, 7.3e8} {
		s := pow2Recip(g)
		//lint:ignore floatcmp power-of-two check: Frexp fraction is exactly 0.5 iff s is 2^k
		if frac, _ := math.Frexp(s); frac != 0.5 {
			t.Errorf("pow2Recip(%g) = %g is not a power of two", g, s)
		}
		if prod := g * s; prod < math.Sqrt2/2-1e-15 || prod >= math.Sqrt2+1e-15 {
			t.Errorf("pow2Recip(%g): product %g outside [1/sqrt2, sqrt2)", g, prod)
		}
	}
	for _, g := range []float64{0, -1, math.Inf(1), math.NaN()} {
		//lint:ignore floatcmp degenerate inputs return the exact literal 1
		if s := pow2Recip(g); s != 1 {
			t.Errorf("pow2Recip(%g) = %g, want 1", g, s)
		}
	}
}

// TestRootPresolveKeep: keep columns (branch-and-bound integers) survive
// every reduction unscaled — even a zero-width box, the shape a pinned
// binary takes — and the exported handle's maps and offset satisfy
// original objective = reduced objective + ObjOffset with keep values
// identical in both spaces.
func TestRootPresolveKeep(t *testing.T) {
	p := NewProblem(3)
	for v := 0; v < 3; v++ {
		p.SetObjCoef(v, 1)
	}
	p.SetBounds(0, 1, 1) // kept integer pinned by branching
	p.SetBounds(2, 2, 2) // free continuous column: eliminated
	p.AddConstraint([]Term{{Var: 0, Coef: 1}, {Var: 1, Coef: 1}}, LE, 4)
	p.AddConstraint([]Term{{Var: 1, Coef: 1}, {Var: 2, Coef: 1}}, LE, 5)

	ps := RootPresolve(p, []int{0}, Options{Presolve: PresolveOn})
	if ps == nil || ps.Status() != Optimal {
		t.Fatal("RootPresolve declined a reducible problem")
	}
	red := ps.Reduced()
	if red == nil {
		t.Fatal("no reduced problem")
	}
	if ps.Col(0) < 0 {
		t.Fatal("keep column eliminated")
	}
	if ps.Col(2) != -1 {
		t.Fatal("fixed continuous column survived")
	}
	if got := ps.ObjOffset(); !numeric.AlmostEqual(got, 2) {
		t.Fatalf("ObjOffset = %g, want 2 (eliminated x2)", got)
	}
	// Keep columns are never rescaled: the pinned box must read back
	// verbatim in the reduced space.
	lo, hi := red.Bounds(ps.Col(0))
	//lint:ignore floatcmp keep-column bounds are copied verbatim, never rescaled
	if lo != 1 || hi != 1 {
		t.Fatalf("keep column box [%g, %g] in reduced space, want [1, 1]", lo, hi)
	}

	sol, err := Solve(red, Options{Presolve: PresolveOff})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("reduced status %v", sol.Status)
	}
	x := ps.PostsolveX(sol.X)
	var orig float64
	for v := 0; v < 3; v++ {
		orig += x[v]
	}
	if !numeric.Close(orig, sol.Objective+ps.ObjOffset(), 1e-9) {
		t.Fatalf("objective identity broken: original %g != reduced %g + offset %g",
			orig, sol.Objective, ps.ObjOffset())
	}
	//lint:ignore floatcmp pinned boxes postsolve to their exact bound values
	if x[0] != 1 || x[2] != 2 {
		t.Fatalf("postsolve x = %v, want x0=1 (keep) and x2=2 (fixed)", x)
	}
	// The keep column's value maps 1:1 between the spaces.
	//lint:ignore floatcmp postsolve copies keep-column values bit-for-bit
	if x[0] != sol.X[ps.Col(0)] {
		t.Fatalf("keep column value changed across postsolve: %g != %g", x[0], sol.X[ps.Col(0)])
	}
}
