package lp

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func TestDualsTextbook(t *testing.T) {
	// max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18; optimum 36 with
	// duals (0, 3/2, 1).
	p := NewProblem(2)
	p.SetObjCoef(0, 3)
	p.SetObjCoef(1, 5)
	p.AddConstraint([]Term{{0, 1}}, LE, 4)
	p.AddConstraint([]Term{{1, 2}}, LE, 12)
	p.AddConstraint([]Term{{0, 3}, {1, 2}}, LE, 18)
	ds, err := SolveWithDuals(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Status != Optimal {
		t.Fatalf("status %v", ds.Status)
	}
	want := []float64{0, 1.5, 1}
	for i := range want {
		if math.Abs(ds.Duals[i]-want[i]) > 1e-7 {
			t.Errorf("dual %d = %g, want %g", i, ds.Duals[i], want[i])
		}
	}
	if err := Certify(p, ds.X, ds.Duals, 1e-6); err != nil {
		t.Errorf("certificate rejected: %v", err)
	}
	// Reduced costs of basic variables are zero.
	for v, rc := range ds.ReducedCosts {
		if ds.X[v] > 1e-9 && math.Abs(rc) > 1e-7 {
			t.Errorf("basic var %d has reduced cost %g", v, rc)
		}
	}
}

func TestDualsWithEqualityAndGE(t *testing.T) {
	// max x + 2y s.t. x + y == 4, y >= 1, x <= 2.5.
	// Optimum: y as large as possible: x=0? obj = x+2y = x + 2(4−x) = 8−x
	// -> x = 0, y = 4, obj 8. Duals: eq row 2, ge row 0, le row 0.
	p := NewProblem(2)
	p.SetObjCoef(0, 1)
	p.SetObjCoef(1, 2)
	p.AddConstraint([]Term{{0, 1}, {1, 1}}, EQ, 4)
	p.AddConstraint([]Term{{1, 1}}, GE, 1)
	p.AddConstraint([]Term{{0, 1}}, LE, 2.5)
	ds, err := SolveWithDuals(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Status != Optimal || math.Abs(ds.Objective-8) > 1e-7 {
		t.Fatalf("status %v obj %g", ds.Status, ds.Objective)
	}
	if err := Certify(p, ds.X, ds.Duals, 1e-6); err != nil {
		t.Errorf("certificate rejected: %v", err)
	}
	if math.Abs(ds.Duals[0]-2) > 1e-7 {
		t.Errorf("equality dual = %g, want 2", ds.Duals[0])
	}
}

func TestDualsUpperBoundComplementarity(t *testing.T) {
	// max 2x + y s.t. x + y <= 10 with x boxed to [0, 3]. Optimum x = 3,
	// y = 7, objective 13; the row dual is 1 and the reduced cost of x is
	// 2 − 1 = +1: positive, as complementary slackness demands of a
	// variable resting at its upper bound (the residue is priced by the
	// upper bound's own multiplier). Certify must accept the certificate —
	// under the default [0, +inf) boxes a positive reduced cost would be
	// outright dual-infeasible, so this pins the boxed dual theory.
	p := NewProblem(2)
	p.SetObjCoef(0, 2)
	p.SetObjCoef(1, 1)
	p.SetBounds(0, 0, 3)
	p.AddConstraint([]Term{{0, 1}, {1, 1}}, LE, 10)
	ds, err := SolveWithDuals(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Status != Optimal || math.Abs(ds.Objective-13) > 1e-7 {
		t.Fatalf("status %v obj %g, want Optimal 13", ds.Status, ds.Objective)
	}
	if math.Abs(ds.X[0]-3) > 1e-7 || math.Abs(ds.X[1]-7) > 1e-7 {
		t.Fatalf("x = %v, want (3, 7)", ds.X)
	}
	if math.Abs(ds.Duals[0]-1) > 1e-7 {
		t.Errorf("row dual = %g, want 1", ds.Duals[0])
	}
	if rc := ds.ReducedCosts[0]; math.Abs(rc-1) > 1e-7 {
		t.Errorf("reduced cost at upper bound = %g, want +1", rc)
	}
	if rc := ds.ReducedCosts[1]; math.Abs(rc) > 1e-7 {
		t.Errorf("basic variable reduced cost = %g, want 0", rc)
	}
	if err := Certify(p, ds.X, ds.Duals, 1e-6); err != nil {
		t.Errorf("certificate rejected: %v", err)
	}
}

func TestDualsNegativeRHS(t *testing.T) {
	// max -x s.t. -x <= -3 (x >= 3). Optimum x=3, obj -3; the flipped row's
	// dual in original orientation is y <= 0 with value -1... specifically
	// c - y·a = 0 for basic x: -1 - y·(-1) = 0 -> y = -1? With a = -1:
	// -1 + y = 0 -> y = 1? Let Certify decide.
	p := NewProblem(1)
	p.SetObjCoef(0, -1)
	p.AddConstraint([]Term{{0, -1}}, LE, -3)
	ds, err := SolveWithDuals(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Status != Optimal {
		t.Fatalf("status %v", ds.Status)
	}
	if err := Certify(p, ds.X, ds.Duals, 1e-6); err != nil {
		t.Errorf("certificate rejected: %v", err)
	}
}

func TestCertifyOnRandomLPs(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		src := rng.NewReplicate(123, "certify", trial)
		p := randomLP(src, 3+src.Intn(12), 3+src.Intn(20))
		ds, err := SolveWithDuals(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if ds.Status != Optimal {
			t.Fatalf("trial %d: status %v", trial, ds.Status)
		}
		if err := Certify(p, ds.X, ds.Duals, 1e-5); err != nil {
			t.Errorf("trial %d: certificate rejected: %v", trial, err)
		}
	}
}

func TestCertifyRejectsBadCertificates(t *testing.T) {
	p := NewProblem(1)
	p.SetObjCoef(0, 1)
	p.AddConstraint([]Term{{0, 1}}, LE, 2)
	// Wrong dimensions.
	if err := Certify(p, []float64{1, 2}, []float64{0}, 1e-9); err == nil {
		t.Error("dimension mismatch accepted")
	}
	// Primal infeasible point.
	if err := Certify(p, []float64{3}, []float64{1}, 1e-9); err == nil {
		t.Error("infeasible primal accepted")
	}
	// Negative primal.
	if err := Certify(p, []float64{-1}, []float64{1}, 1e-9); err == nil {
		t.Error("negative primal accepted")
	}
	// Wrong dual sign.
	if err := Certify(p, []float64{2}, []float64{-1}, 1e-9); err == nil {
		t.Error("negative LE dual accepted")
	}
	// Duality gap (suboptimal primal with optimal dual).
	if err := Certify(p, []float64{1}, []float64{1}, 1e-9); err == nil {
		t.Error("duality gap accepted")
	}
	// Positive reduced cost (zero dual on the only binding row).
	if err := Certify(p, []float64{2}, []float64{0}, 1e-9); err == nil {
		t.Error("positive reduced cost accepted")
	}
}

func TestSolveWithDualsInfeasible(t *testing.T) {
	p := NewProblem(1)
	p.AddConstraint([]Term{{0, 1}}, LE, 1)
	p.AddConstraint([]Term{{0, 1}}, GE, 2)
	ds, err := SolveWithDuals(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Status != Infeasible {
		t.Errorf("status %v", ds.Status)
	}
	if ds.Duals != nil {
		t.Error("infeasible problems should not carry duals")
	}
}

// TestSolveBasisWithDualsTextbook pins the basis-publishing dual
// extraction on the instance TestDualsTextbook uses.
func TestSolveBasisWithDualsTextbook(t *testing.T) {
	p := NewProblem(2)
	p.SetObjCoef(0, 3)
	p.SetObjCoef(1, 5)
	p.AddConstraint([]Term{{0, 1}}, LE, 4)
	p.AddConstraint([]Term{{1, 2}}, LE, 12)
	p.AddConstraint([]Term{{0, 3}, {1, 2}}, LE, 18)
	ds, bs, err := SolveBasisWithDuals(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Status != Optimal {
		t.Fatalf("status %v", ds.Status)
	}
	if bs == nil {
		t.Fatal("no basis returned")
	}
	if math.Abs(ds.Objective-36) > 1e-9 {
		t.Errorf("objective %g, want 36", ds.Objective)
	}
	want := []float64{0, 1.5, 1}
	for i, w := range want {
		if math.Abs(ds.Duals[i]-w) > 1e-9 {
			t.Errorf("dual[%d] = %g, want %g", i, ds.Duals[i], w)
		}
	}
}

// TestSolveBasisWithDualsCertify runs the dual extraction over random LPs
// and checks every certificate with Certify; SolveWithDuals must return the
// same duals and reduced costs bit for bit.
func TestSolveBasisWithDualsCertify(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		src := rng.NewReplicate(321, "certify-kernel", trial)
		p := randomLP(src, 3+src.Intn(12), 3+src.Intn(20))
		ds, _, err := SolveBasisWithDuals(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if ds.Status != Optimal {
			t.Fatalf("trial %d: status %v", trial, ds.Status)
		}
		if err := Certify(p, ds.X, ds.Duals, 1e-5); err != nil {
			t.Errorf("trial %d: certificate rejected: %v", trial, err)
		}
		plain, err := SolveWithDuals(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		assertIdentical(t, "SolveWithDuals", &ds.Solution, &plain.Solution)
		for i := range ds.Duals {
			//lint:ignore floatcmp both entry points run the same solve
			if ds.Duals[i] != plain.Duals[i] {
				t.Errorf("trial %d: dual[%d] = %g vs SolveWithDuals %g", trial, i, ds.Duals[i], plain.Duals[i])
			}
		}
		for v := range ds.ReducedCosts {
			//lint:ignore floatcmp both entry points run the same solve
			if ds.ReducedCosts[v] != plain.ReducedCosts[v] {
				t.Errorf("trial %d: redcost[%d] = %g vs SolveWithDuals %g", trial, v, ds.ReducedCosts[v], plain.ReducedCosts[v])
			}
		}
	}
}

// TestSolveBasisWithDualsStaircase certifies the kernel duals on
// DSCT-EA-FR-shaped staircase instances, the sparse workload the LU kernel
// is built for.
func TestSolveBasisWithDualsStaircase(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		src := rng.NewReplicate(322, "certify-kernel-staircase", trial)
		g := generateStaircaseLP(src, 20+src.Intn(21), 2+src.Intn(3))
		ds, _, err := SolveBasisWithDuals(g.p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if ds.Status != Optimal {
			t.Fatalf("trial %d: status %v", trial, ds.Status)
		}
		if err := Certify(g.p, ds.X, ds.Duals, 1e-5); err != nil {
			t.Errorf("trial %d: certificate rejected: %v", trial, err)
		}
	}
}

// TestSolveBasisWithDualsInfeasible mirrors TestSolveWithDualsInfeasible:
// non-optimal statuses must carry no duals.
func TestSolveBasisWithDualsInfeasible(t *testing.T) {
	p := NewProblem(1)
	p.SetObjCoef(0, 1)
	p.AddConstraint([]Term{{0, 1}}, LE, 1)
	p.AddConstraint([]Term{{0, 1}}, GE, 2)
	ds, bs, err := SolveBasisWithDuals(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Status != Infeasible {
		t.Fatalf("status %v, want infeasible", ds.Status)
	}
	if ds.Duals != nil || bs != nil {
		t.Fatal("infeasible solve returned duals or a basis")
	}
}
