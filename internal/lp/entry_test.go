package lp

// Entry-point differential and small-shape suite. Every public cold entry
// point (Solve, SolveBasis, SolveWithDuals, SolveBasisWithDuals) must land
// on the same answer for the same problem, the duals must pass Certify,
// and the published Basis must warm-start a bound-row child exactly like
// a cold solve of that child. The table-driven half solves hand-computed
// shapes (empty rows, singleton rows, fixed and empty columns, boxes that
// make a row infeasible) whose X and duals are known exactly.
//
// The two test names below date from the project's former presolve
// layer, which reduced these same instances before the core ran; the ids
// are kept, and the tests now hold the problem as built.

import (
	"math"
	"strconv"
	"testing"

	"repro/internal/numeric"
	"repro/internal/rng"
)

// entryDifferential runs one instance through the entry-point battery:
// Solve, SolveBasis, both dual entry points with certificates, and a
// warm-started child from the published basis.
func entryDifferential(t *testing.T, g *genLP, s *rng.Source) {
	t.Helper()
	ref, err := Solve(g.p, Options{})
	if err != nil {
		t.Fatal(err)
	}

	bsol, bs, err := SolveBasis(g.p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertAgreeXTol(t, "basis", ref, bsol)

	ds, err := SolveWithDuals(g.p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertAgreeXTol(t, "duals", ref, &ds.Solution)
	if ds.Status == Optimal {
		if err := Certify(g.p, ds.X, ds.Duals, 1e-6); err != nil {
			t.Fatalf("duals certificate: %v", err)
		}
	}
	bds, bbs, err := SolveBasisWithDuals(g.p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertAgreeXTol(t, "basis-duals", ref, &bds.Solution)
	if bds.Status == Optimal {
		if err := Certify(g.p, bds.X, bds.Duals, 1e-6); err != nil {
			t.Fatalf("basis-duals certificate: %v", err)
		}
		if bbs == nil {
			t.Fatal("optimal basis-duals solve returned no basis")
		}
	}

	if ref.Status != Optimal || bs == nil {
		return
	}
	v := s.Intn(g.p.NumVars())
	child := g.p.Clone()
	child.AddConstraint([]Term{{Var: v, Coef: 1}}, LE, math.Floor(ref.X[v]))
	warm, _, err := SolveFrom(child, bs, Options{})
	if err != nil {
		t.Fatalf("warm from published basis: %v", err)
	}
	cold, err := Solve(child, Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertAgreeXTol(t, "warm-child", cold, warm)
}

// TestDifferentialPresolve: the entry-point battery over the full
// 240-instance corpus, on both the rows-only family and the boxed family
// (fixed columns and singleton box rows).
func TestDifferentialPresolve(t *testing.T) {
	for i := 0; i < corpusSize; i++ {
		i := i
		t.Run(strconv.Itoa(i), func(t *testing.T) {
			t.Parallel()
			s := rng.NewReplicate(7, "lp-differential-presolve", i)
			t.Run("rows", func(t *testing.T) {
				entryDifferential(t, corpusInstance(i), s)
			})
			t.Run("boxed", func(t *testing.T) {
				n := 1 + s.Intn(7)
				m := s.Intn(10)
				entryDifferential(t, generateBoundedLP(s, n, m), s)
			})
		})
	}
}

// shapeCase is one hand-computed small-shape scenario.
type shapeCase struct {
	name       string
	build      func() *Problem
	wantStatus Status
	wantX      []float64 // nil: skip
	wantObj    float64
	wantDuals  []float64 // nil: skip the dual check
}

var shapeCases = []shapeCase{
	{
		// 0·x <= 2 is vacuous and x <= 3 binds; only the singleton row
		// prices x.
		name: "empty-row-feasible",
		build: func() *Problem {
			p := NewProblem(1)
			p.SetObjCoef(0, 1)
			p.AddConstraint(nil, LE, 2)
			p.AddConstraint([]Term{{Var: 0, Coef: 1}}, LE, 3)
			return p
		},
		wantStatus: Optimal,
		wantX:      []float64{3}, wantObj: 3,
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
		// Optimum (3, 2): both rows bind, so both duals are 1 — the
		// singleton row takes x0's residual reduced cost 2 − y1.
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
		wantX:      []float64{3, 2}, wantObj: 8,
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
		// Two singletons squeeze x0 into the empty range [2, 1].
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
		// x0 is boxed at 2. Row 0 ends slack (5 < 6) so its dual is 0;
		// row 1 binds and takes x1's reduced cost 1. x0's own cost is
		// priced by its zero-width box, not a row.
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
		wantX:      []float64{2, 3}, wantObj: 5,
		wantDuals: []float64{0, 1},
	},
	{
		// The singleton row is slack under x0's box, so both columns are
		// priced by their boxes alone: the profitable one rests at its
		// upper bound, the costly one at its lower, and the dual is 0.
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
		wantX:      []float64{4, 1}, wantObj: 7,
		wantDuals: []float64{0},
	},
	{
		// x0 is profitable, row-free and unbounded above: the core
		// reports the unbounded ray.
		name: "empty-column-unbounded",
		build: func() *Problem {
			p := NewProblem(2)
			p.SetObjCoef(0, 1)
			p.AddConstraint([]Term{{Var: 1, Coef: 1}}, LE, 1)
			return p
		},
		wantStatus: Unbounded,
	},
	{
		// The boxes cap x0 + x1 at 5, so the row x0 + x1 >= 10 is
		// impossible.
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

// TestPresolveReductions: each small shape solves to its hand-computed
// status, X and objective, and its duals match the hand-computed
// multipliers through both dual entry points, each certified.
func TestPresolveReductions(t *testing.T) {
	for _, tc := range shapeCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			p := tc.build()
			sol, err := Solve(p, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if sol.Status != tc.wantStatus {
				t.Fatalf("status %v, want %v", sol.Status, tc.wantStatus)
			}
			if tc.wantX != nil {
				for v, want := range tc.wantX {
					if !numeric.Close(sol.X[v], want, 1e-9) {
						t.Errorf("x[%d] = %.17g, want %g", v, sol.X[v], want)
					}
				}
				if !numeric.Close(sol.Objective, tc.wantObj, 1e-9) {
					t.Errorf("objective = %.17g, want %g", sol.Objective, tc.wantObj)
				}
			}

			if tc.wantDuals == nil {
				return
			}
			for _, ep := range []struct {
				name  string
				solve func() (*DualSolution, error)
			}{
				{"duals", func() (*DualSolution, error) {
					return SolveWithDuals(p, Options{})
				}},
				{"basis", func() (*DualSolution, error) {
					ds, _, err := SolveBasisWithDuals(p, Options{})
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
