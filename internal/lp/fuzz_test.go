package lp

import (
	"testing"

	"repro/internal/rng"
)

// FuzzSimplex drives the simplex solver over the shared random-LP
// generator (see gen_test.go): instances are feasible and bounded by
// construction, so the solver must report Optimal, return a primal
// feasible point, achieve an objective no worse than c·x*, and carry a
// dual certificate Certify accepts. Each input additionally derives a randomly
// boxed instance (finite bounds, positive lower bounds, fixed variables)
// and cross-checks the bounded-variable method against the same problem
// with its bounds expanded to explicit rows via ExpandBounds. An extra
// fuzzed byte picks an Options.Pricing rule; the variant solve is
// cross-checked against the baseline.
func FuzzSimplex(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(4), uint8(0))
	f.Add(int64(42), uint8(1), uint8(1), uint8(2))
	f.Add(int64(-7), uint8(6), uint8(8), uint8(3))
	f.Add(int64(1<<40), uint8(2), uint8(0), uint8(1))

	f.Fuzz(func(t *testing.T, seed int64, nvRaw, ncRaw, prRaw uint8) {
		s := rng.New(seed, "fuzz-simplex")
		n := 1 + int(nvRaw)%6
		m := int(ncRaw) % 9
		g := generateFeasibleLP(s, n, m)

		sol, err := Solve(g.p, Options{})
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		if sol.Status != Optimal {
			t.Fatalf("status = %v, want Optimal (LP is feasible and bounded by construction)", sol.Status)
		}
		if len(sol.X) != n {
			t.Fatalf("solution has %d vars, want %d", len(sol.X), n)
		}
		for v, x := range sol.X {
			if x < -1e-7 {
				t.Errorf("x[%d] = %g violates non-negativity", v, x)
			}
		}
		for i, r := range g.rows {
			lhs := 0.0
			scale := 1.0
			for v, c := range r.coefs {
				lhs += c * sol.X[v]
				if a := c * sol.X[v]; a > scale {
					scale = a
				} else if -a > scale {
					scale = -a
				}
			}
			if lhs > r.rhs+1e-6*scale+1e-6 {
				t.Errorf("row %d infeasible: %g > %g", i, lhs, r.rhs)
			}
		}
		// x* is feasible, so the optimum must score at least c·x*.
		want := g.feasibleValue()
		tol := 1e-6 * (1 + abs(want))
		if sol.Objective < want-tol {
			t.Errorf("objective %g below feasible point's value %g", sol.Objective, want)
		}

		// The optimum must carry a dual certificate: Certify shares no code
		// with the simplex, so this is the independent check of the answer.
		cert, _, err := SolveBasisWithDuals(g.p, Options{})
		if err != nil {
			t.Fatalf("SolveBasisWithDuals: %v", err)
		}
		if err := Certify(g.p, cert.X, cert.Duals, 1e-6); err != nil {
			t.Errorf("certificate: %v", err)
		}

		// Fuzzed pricing rule: whatever the byte picks, the variant must
		// land on the baseline optimum.
		pricing := []PricingMode{PricingAuto, PricingDantzig, PricingPartial}[int(prRaw)%3]
		vopts := Options{Pricing: pricing}
		vsol, err := Solve(g.p, vopts)
		if err != nil {
			t.Fatalf("Solve(%v): %v", pricing, err)
		}
		if vsol.Status != Optimal {
			t.Fatalf("variant status = %v (pricing %v), want Optimal", vsol.Status, pricing)
		}
		if d := vsol.Objective - sol.Objective; abs(d) > 1e-6*(1+abs(sol.Objective)) {
			t.Errorf("variant objective %g != baseline %g (pricing %v)",
				vsol.Objective, sol.Objective, pricing)
		}

		// Boxed variant from the same stream: the bounded-variable method
		// must match the bounds-expanded-to-rows rewrite of the identical
		// instance, and its solution must respect the original boxes.
		gb := generateBoundedLP(s, n, m)
		bounded, err := Solve(gb.p, Options{})
		if err != nil {
			t.Fatalf("Solve(bounded): %v", err)
		}
		if bounded.Status != Optimal {
			t.Fatalf("bounded status = %v, want Optimal (boxed LP is feasible and bounded by construction)", bounded.Status)
		}
		for v, x := range bounded.X {
			if x < gb.lo[v]-1e-7 || x > gb.hi[v]+1e-7 {
				t.Errorf("x[%d] = %g outside box [%g, %g]", v, x, gb.lo[v], gb.hi[v])
			}
		}
		expanded, err := Solve(ExpandBounds(gb.p), Options{})
		if err != nil {
			t.Fatalf("Solve(ExpandBounds): %v", err)
		}
		if expanded.Status != Optimal {
			t.Fatalf("expanded status = %v, want Optimal", expanded.Status)
		}
		if d := bounded.Objective - expanded.Objective; abs(d) > 1e-6*(1+abs(expanded.Objective)) {
			t.Errorf("bounded objective %g != rows-expanded objective %g (diff %g)",
				bounded.Objective, expanded.Objective, d)
		}
		// The fuzzed pricing rule must agree on the boxed family too.
		vbounded, _, err := SolveBasis(gb.p, vopts)
		if err != nil {
			t.Fatalf("SolveBasis(bounded, %v): %v", pricing, err)
		}
		if vbounded.Status != Optimal {
			t.Fatalf("bounded variant status = %v, want Optimal", vbounded.Status)
		}
		if d := vbounded.Objective - bounded.Objective; abs(d) > 1e-6*(1+abs(bounded.Objective)) {
			t.Errorf("bounded variant objective %g != baseline %g (pricing %v)",
				vbounded.Objective, bounded.Objective, pricing)
		}
	})
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
