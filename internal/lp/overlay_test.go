package lp

// Tests for the copy-free Overlay used by branch-and-bound nodes: an
// overlay must behave exactly like a deep Clone to every solver while
// never mutating the base problem it shares rows with.

import (
	"testing"

	"repro/internal/numeric"
	"repro/internal/rng"
)

// TestOverlayIsolation: appending rows and rewriting objective
// coefficients on an overlay must leave the base problem untouched, and
// two sibling overlays must not see each other's rows.
func TestOverlayIsolation(t *testing.T) {
	base := NewProblem(3)
	base.SetObjCoef(0, 1)
	base.SetObjCoef(1, 2)
	base.AddConstraint([]Term{{Var: 0, Coef: 1}, {Var: 1, Coef: 1}}, LE, 4)
	base.AddConstraint([]Term{{Var: 2, Coef: 1}}, LE, 7)
	baseRows := base.NumConstraints()

	down := base.Overlay()
	up := base.Overlay()
	if got := down.AddConstraint([]Term{{Var: 0, Coef: 1}}, LE, 1); got != baseRows {
		t.Fatalf("overlay AddConstraint returned %d, want %d", got, baseRows)
	}
	up.AddConstraint([]Term{{Var: 0, Coef: 1}}, GE, 2)
	up.AddConstraint([]Term{{Var: 1, Coef: 1}}, GE, 1)
	down.SetObjCoef(2, 5)

	if base.NumConstraints() != baseRows {
		t.Fatalf("base grew to %d rows", base.NumConstraints())
	}
	if base.ObjCoef(2) != 0 {
		t.Fatalf("base objective mutated: c[2] = %g", base.ObjCoef(2))
	}
	if down.NumConstraints() != baseRows+1 || up.NumConstraints() != baseRows+2 {
		t.Fatalf("sibling overlays share rows: down=%d up=%d",
			down.NumConstraints(), up.NumConstraints())
	}
	//lint:ignore floatcmp SetObjCoef stores the value verbatim; identity is exact
	if down.ObjCoef(2) != 5 || up.ObjCoef(2) != 0 {
		t.Fatalf("objective copy-on-write leaked: down c[2]=%g up c[2]=%g",
			down.ObjCoef(2), up.ObjCoef(2))
	}
}

// TestOverlayOfOverlay: stacking overlays (a grandchild node) flattens
// correctly — the grandchild sees base + parent rows as its immutable
// prefix and still cannot mutate either ancestor.
func TestOverlayOfOverlay(t *testing.T) {
	base := NewProblem(2)
	base.SetObjCoef(0, 1)
	base.AddConstraint([]Term{{Var: 0, Coef: 1}, {Var: 1, Coef: 1}}, LE, 3)

	child := base.Overlay()
	child.AddConstraint([]Term{{Var: 0, Coef: 1}}, LE, 2)
	grand := child.Overlay()
	grand.AddConstraint([]Term{{Var: 1, Coef: 1}}, LE, 1)

	if base.NumConstraints() != 1 || child.NumConstraints() != 2 || grand.NumConstraints() != 3 {
		t.Fatalf("row counts base=%d child=%d grand=%d, want 1/2/3",
			base.NumConstraints(), child.NumConstraints(), grand.NumConstraints())
	}
	sol, err := Solve(grand, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || !numeric.AlmostEqual(sol.Objective, 2) {
		t.Fatalf("grandchild solve: status %v obj %g, want Optimal 2", sol.Status, sol.Objective)
	}
}

// TestOverlaySolvesLikeClone: on random instances, an overlay with
// appended bound rows must produce the same solution as a deep clone with
// the same rows, cold and warm-started —
// the exact usage pattern of internal/mip node solves.
func TestOverlaySolvesLikeClone(t *testing.T) {
	for i := 0; i < 40; i++ {
		s := rng.NewReplicate(5, "lp-overlay", i)
		n := 2 + s.Intn(6)
		g := generateFeasibleLP(s, n, s.Intn(8))
		root, bs, err := SolveBasis(g.p, Options{})
		if err != nil || root.Status != Optimal {
			t.Fatalf("instance %d: root status %v err %v", i, root.Status, err)
		}
		v := s.Intn(n)
		rhs := root.X[v] / 2

		clone := g.p.Clone()
		clone.AddConstraint([]Term{{Var: v, Coef: 1}}, LE, rhs)
		overlay := g.p.Overlay()
		overlay.AddConstraint([]Term{{Var: v, Coef: 1}}, LE, rhs)

		cs, _, err := SolveBasis(clone, Options{})
		if err != nil {
			t.Fatalf("instance %d: clone solve: %v", i, err)
		}
		os, _, err := SolveBasis(overlay, Options{})
		if err != nil {
			t.Fatalf("instance %d: overlay solve: %v", i, err)
		}
		assertAgreeX(t, "cold", cs, os)
		cw, _, err := SolveFrom(clone, bs, Options{})
		if err != nil {
			t.Fatalf("instance %d: clone warm: %v", i, err)
		}
		ow, _, err := SolveFrom(overlay, bs, Options{})
		if err != nil {
			t.Fatalf("instance %d: overlay warm: %v", i, err)
		}
		assertAgreeX(t, "warm", cw, ow)
	}
}
