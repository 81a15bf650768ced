package lp

// Unit tests for the variable-bounds API (SetBounds/Bounds, copy-on-write
// through Clone and Overlay, expandBounds) and a table-driven end-to-end
// suite for the bound-flip ratio test: each case is a tiny LP whose optimal
// trace forces a specific bounded-variable event — a pure bound flip, a
// flip followed by a pivot, an entry *from* the upper bound, a fixed
// (zero-width) box, a degenerate [0, 0] box, a negative lower bound — and
// the solver must land on the known optimum.

import (
	"fmt"
	"math"
	"testing"
)

// expandBounds returns a deep copy of p with every non-default variable
// bound rewritten as explicit constraint rows and the bounds reset to the
// default [0, +Inf) box: lo == hi becomes one EQ row, otherwise lo > 0
// becomes a GE row and finite hi an LE row. The result describes the same
// feasible set, so it is the row-encoded reference the differential
// tests, FuzzSimplex and BenchmarkBoundsVsRowsLP compare the native boxes
// against.
//
// It panics when some lo < 0: the implicit x >= 0 of the row encoding
// cannot express a negative lower bound.
//
//lint:freezer rewrites the deep copy's boxes as rows before publication; p itself is untouched
func expandBounds(p *Problem) *Problem {
	c := p.Clone()
	if c.lo == nil {
		return c
	}
	lo, hi := c.lo, c.hi
	c.lo, c.hi = nil, nil
	for v := 0; v < c.nVars; v++ {
		if lo[v] < 0 {
			panic(fmt.Sprintf("lp: expandBounds: variable %d has negative lower bound %v, inexpressible as rows over x >= 0", v, lo[v]))
		}
		if hi[v] <= lo[v] {
			c.AddConstraint([]Term{{Var: v, Coef: 1}}, EQ, lo[v])
			continue
		}
		if lo[v] > 0 {
			c.AddConstraint([]Term{{Var: v, Coef: 1}}, GE, lo[v])
		}
		if !math.IsInf(hi[v], 1) {
			c.AddConstraint([]Term{{Var: v, Coef: 1}}, LE, hi[v])
		}
	}
	return c
}

// wantBox asserts Bounds(v) returns exactly the given endpoints: SetBounds
// stores endpoints verbatim (no arithmetic), so the round trip is bit-exact
// and approximate comparison would only mask a copy-on-write bug.
func wantBox(t *testing.T, p *Problem, v int, lo, hi float64) {
	t.Helper()
	gotLo, gotHi := p.Bounds(v)
	//lint:ignore floatcmp SetBounds stores endpoints verbatim; the round trip is bit-exact
	if gotLo != lo || gotHi != hi {
		t.Fatalf("Bounds(%d) = [%g, %g], want [%g, %g]", v, gotLo, gotHi, lo, hi)
	}
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: no panic", what)
		}
	}()
	f()
}

func TestSetBoundsValidation(t *testing.T) {
	p := NewProblem(2)
	mustPanic(t, "variable out of range", func() { p.SetBounds(2, 0, 1) })
	mustPanic(t, "NaN lower", func() { p.SetBounds(0, math.NaN(), 1) })
	mustPanic(t, "NaN upper", func() { p.SetBounds(0, 0, math.NaN()) })
	mustPanic(t, "infinite lower", func() { p.SetBounds(0, math.Inf(1), math.Inf(1)) })
	mustPanic(t, "hi < lo", func() { p.SetBounds(0, 2, 1) })
	mustPanic(t, "Bounds out of range", func() { p.Bounds(2) })
}

func TestBoundsDefaultsAndRoundTrip(t *testing.T) {
	p := NewProblem(2)
	wantBox(t, p, 1, 0, math.Inf(1))
	p.SetBounds(0, -1.5, 4)
	wantBox(t, p, 0, -1.5, 4)
	// Setting one variable must not disturb another's default.
	wantBox(t, p, 1, 0, math.Inf(1))
	// A zero-width box is legal (fixed variable).
	p.SetBounds(1, 2, 2)
	wantBox(t, p, 1, 2, 2)
}

func TestCloneCopiesBounds(t *testing.T) {
	p := NewProblem(1)
	p.SetBounds(0, 1, 3)
	c := p.Clone()
	c.SetBounds(0, 0, 7)
	wantBox(t, p, 0, 1, 3) // clone write must not leak into the original
	wantBox(t, c, 0, 0, 7)
}

func TestOverlayBoundsCopyOnWrite(t *testing.T) {
	p := NewProblem(2)
	p.SetBounds(0, 1, 3)
	o := p.Overlay()
	// The overlay sees the base's boxes without copying them...
	wantBox(t, o, 0, 1, 3)
	// ...and its first write copies, leaving the base untouched.
	o.SetBounds(0, 2, 2)
	wantBox(t, p, 0, 1, 3)
	wantBox(t, o, 0, 2, 2)
	// An overlay of a default-boxed base materialises its own slices.
	q := NewProblem(1)
	oq := q.Overlay()
	oq.SetBounds(0, 0, 5)
	wantBox(t, q, 0, 0, math.Inf(1))
}

func TestExpandBounds(t *testing.T) {
	p := NewProblem(4)
	p.SetBounds(0, 0, 5) // finite upper: one LE row
	p.SetBounds(1, 2, 7) // positive lower + finite upper: GE + LE rows
	p.SetBounds(2, 3, 3) // fixed: one EQ row
	_ = p                // variable 3 keeps the default box: no rows
	p.AddConstraint([]Term{{0, 1}, {3, 1}}, LE, 9)

	e := expandBounds(p)
	if got := e.NumConstraints(); got != 1+1+2+1 {
		t.Fatalf("expanded rows = %d, want 5", got)
	}
	// Every expanded box must be back at the default.
	for v := 0; v < 4; v++ {
		wantBox(t, e, v, 0, math.Inf(1))
	}
	// The original is untouched.
	wantBox(t, p, 1, 2, 7)
	// Negative lower bounds are inexpressible over x >= 0.
	q := NewProblem(1)
	q.SetBounds(0, -1, 1)
	mustPanic(t, "negative lower bound", func() { expandBounds(q) })
}

// boundsCase is one bound-flip ratio-test scenario with a known optimum.
type boundsCase struct {
	name  string
	build func() *Problem
	want  Status
	obj   float64
	x     []float64 // nil: don't pin the vertex
}

func boundsCases() []boundsCase {
	return []boundsCase{
		{
			// The entering variable's own span is the minimum ratio: x0
			// flips from lower to upper bound with no basis change.
			name: "pure-flip",
			build: func() *Problem {
				p := NewProblem(1)
				p.SetObjCoef(0, 1)
				p.SetBounds(0, 0, 5)
				p.AddConstraint([]Term{{0, 1}}, LE, 100) // loose
				return p
			},
			want: Optimal, obj: 5, x: []float64{5},
		},
		{
			// x0 flips to its upper bound 4, then x1 enters with a pivot
			// on the remaining row slack.
			name: "flip-then-pivot",
			build: func() *Problem {
				p := NewProblem(2)
				p.SetObjCoef(0, 3)
				p.SetObjCoef(1, 2)
				p.SetBounds(0, 0, 4)
				p.AddConstraint([]Term{{0, 1}, {1, 1}}, LE, 5)
				return p
			},
			want: Optimal, obj: 14, x: []float64{4, 1},
		},
		{
			// Greedy pricing flips x0 up first (largest reduced cost),
			// but once x1 is priced in, x0's reduced cost turns negative
			// at the upper bound and it must re-enter *from* the upper
			// bound and travel back down — the sign-aware entry the
			// one-sided method never needed.
			name: "enter-from-upper",
			build: func() *Problem {
				p := NewProblem(2)
				p.SetObjCoef(0, 5)
				p.SetObjCoef(1, 4)
				p.SetBounds(0, 0, 1)
				p.AddConstraint([]Term{{0, 2}, {1, 1}}, LE, 3)
				return p
			},
			want: Optimal, obj: 12, x: []float64{0, 3},
		},
		{
			// A fixed (zero-width) box: x0 is never eligible to enter and
			// contributes as a constant.
			name: "fixed-var",
			build: func() *Problem {
				p := NewProblem(2)
				p.SetObjCoef(0, 1)
				p.SetObjCoef(1, 1)
				p.SetBounds(0, 2, 2)
				p.SetBounds(1, 0, 1)
				return p
			},
			want: Optimal, obj: 3, x: []float64{2, 1},
		},
		{
			// Degenerate [0, 0] box: the profitable column is pinned at
			// zero width and must be skipped even with reduced cost 5.
			name: "degenerate-zero-box",
			build: func() *Problem {
				p := NewProblem(2)
				p.SetObjCoef(0, 5)
				p.SetObjCoef(1, 1)
				p.SetBounds(0, 0, 0)
				p.SetBounds(1, 0, 2)
				return p
			},
			want: Optimal, obj: 2, x: []float64{0, 2},
		},
		{
			// Negative boxes: both variables live strictly below zero /
			// straddle zero, exercising nonzero-lower shifts everywhere.
			name: "negative-lower",
			build: func() *Problem {
				p := NewProblem(2)
				p.SetObjCoef(0, 1)
				p.SetObjCoef(1, -1)
				p.SetBounds(0, -3, -1)
				p.SetBounds(1, -2, 4)
				p.AddConstraint([]Term{{0, 1}, {1, 1}}, LE, 10) // loose
				return p
			},
			want: Optimal, obj: 1, x: []float64{-1, -2},
		},
		{
			// No finite upper bound and no binding row: unbounded above
			// even though the lower bound is positive.
			name: "unbounded-above",
			build: func() *Problem {
				p := NewProblem(2)
				p.SetObjCoef(0, 1)
				p.SetBounds(0, 1, math.Inf(1))
				p.AddConstraint([]Term{{1, 1}}, LE, 2)
				return p
			},
			want: Unbounded,
		},
		{
			// The box demands x0 >= 2 while a row caps it at 1: Phase 1
			// must prove the empty feasible region.
			name: "infeasible-box-vs-row",
			build: func() *Problem {
				p := NewProblem(1)
				p.SetObjCoef(0, 1)
				p.SetBounds(0, 2, 5)
				p.AddConstraint([]Term{{0, 1}}, LE, 1)
				return p
			},
			want: Infeasible,
		},
	}
}

func TestBoundFlipRatioTest(t *testing.T) {
	for _, tc := range boundsCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			check := func(core string, sol *Solution, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s: %v", core, err)
				}
				if sol.Status != tc.want {
					t.Fatalf("%s: status %v, want %v", core, sol.Status, tc.want)
				}
				if tc.want != Optimal {
					return
				}
				if math.Abs(sol.Objective-tc.obj) > 1e-7 {
					t.Errorf("%s: objective %g, want %g", core, sol.Objective, tc.obj)
				}
				for v, want := range tc.x {
					if math.Abs(sol.X[v]-want) > 1e-7 {
						t.Errorf("%s: x[%d] = %g, want %g", core, v, sol.X[v], want)
					}
				}
			}
			sol, _, err := SolveBasis(tc.build(), Options{})
			check("cold", sol, err)
		})
	}
}
