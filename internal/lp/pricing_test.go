package lp

// Differential and unit coverage for the pricing rules. Pricing only
// orders pivots, so every rule must land on the same optimum: the
// differential suite pins dantzig vs partial agreement on status,
// objective AND the full solution vector, cold and warm-started. The
// degenerate pin keeps partial
// pricing's devex scoring honest about the anti-cycling contract — the
// sticky Bland fallback must still engage, and it must reset the
// reference framework. Unit tests check the devex recurrence, the
// overflow restart and the snapshot inheritance arithmetic by hand.

import (
	"math"
	"strconv"
	"testing"

	"repro/internal/numeric"
	"repro/internal/rng"
)

// pricingRules enumerates the non-default rules under differential test.
var pricingRules = []struct {
	name string
	mode PricingMode
}{
	{"partial", PricingPartial},
}

// pricingXTol is the agreement criterion for solves that pivot in
// different orders: the corpus optima are unique (generic random data),
// so every rule reaches the same vertex, but through different
// arithmetic — bit-level TestTol agreement is not meaningful.
const pricingXTol = 1e-8

// assertAgreeXTol fails unless the two solutions agree on status and,
// when optimal, on objective and the full solution vector within
// pricingXTol (scaled).
func assertAgreeXTol(t *testing.T, label string, a, b *Solution) {
	t.Helper()
	assertAgreeXWithin(t, label, a, b, pricingXTol)
}

// assertAgreeXWithin is the underlying comparison at an explicit scaled
// tolerance; the presolve differential passes a looser one because the
// reductions perturb the instance by O(presolveTol) per record.
func assertAgreeXWithin(t *testing.T, label string, a, b *Solution, tol float64) {
	t.Helper()
	if a.Status != b.Status {
		t.Fatalf("%s: status %v != %v", label, a.Status, b.Status)
	}
	if a.Status != Optimal {
		return
	}
	if !numeric.Close(a.Objective, b.Objective, tol) {
		t.Fatalf("%s: objective %.17g != %.17g (diff %g)",
			label, a.Objective, b.Objective, a.Objective-b.Objective)
	}
	for v := range a.X {
		if !numeric.Close(a.X[v], b.X[v], tol) {
			t.Fatalf("%s: x[%d] %.17g != %.17g", label, v, a.X[v], b.X[v])
		}
	}
}

// TestDifferentialPricing: on every corpus instance partial pricing must
// reproduce the dantzig optimum — status, objective and full X — cold
// and warm-started into a bound-row child (the warm child inherits the
// devex weights through the Basis
// snapshot, so this also exercises inheritWeights end to end).
func TestDifferentialPricing(t *testing.T) {
	for i := 0; i < corpusSize; i++ {
		i := i
		t.Run(strconv.Itoa(i), func(t *testing.T) {
			t.Parallel()
			g := corpusInstance(i)
			ref, err := Solve(g.p, Options{Pricing: PricingDantzig})
			if err != nil {
				t.Fatal(err)
			}
			if ref.Status != Optimal {
				t.Fatalf("dantzig reference not optimal (%v); generator broken", ref.Status)
			}

			s := rng.NewReplicate(6, "lp-differential-pricing", i)
			v := s.Intn(g.p.NumVars())
			child := g.p.Clone()
			child.AddConstraint([]Term{{Var: v, Coef: 1}}, LE, math.Floor(ref.X[v]))
			refChild, err := Solve(child, Options{Pricing: PricingDantzig})
			if err != nil {
				t.Fatal(err)
			}

			for _, rule := range pricingRules {
				sol, bs, err := SolveBasis(g.p, Options{Pricing: rule.mode})
				if err != nil {
					t.Fatalf("%s: %v", rule.name, err)
				}
				assertAgreeXTol(t, rule.name, ref, sol)

				// The optimal basis must carry the reference weights so
				// branch-and-bound children inherit them.
				if bs.devex == nil {
					t.Fatalf("%s: optimal basis carries no devex weights", rule.name)
				}

				warm, _, err := SolveFrom(child, bs, Options{Pricing: rule.mode})
				if err != nil {
					t.Fatalf("%s warm: %v", rule.name, err)
				}
				assertAgreeXTol(t, rule.name+"/warm", refChild, warm)
			}

			// The dantzig rule keeps no weights; its snapshots must stay nil
			// so warm starts pay nothing for the feature.
			_, bs0, err := SolveBasis(g.p, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if bs0 != nil && bs0.devex != nil {
				t.Fatal("dantzig basis snapshot carries devex weights")
			}
		})
	}
}

// TestDegenerateStaircaseDevexFallback: the anti-cycling contract is
// rule-independent. On the collapsed-deadline staircase partial pricing's
// devex scoring must still run into the degenerate-run limit, flip to
// Bland's rule (which resets the reference framework), and terminate at
// the known optimum — deterministically.
func TestDegenerateStaircaseDevexFallback(t *testing.T) {
	p := degenerateStaircaseLP(30, 3)
	want := 3.0
	for _, rule := range pricingRules {
		tt, sol, _, err := solveBasisRev(p, Options{Pricing: rule.mode})
		if err != nil {
			t.Fatalf("%s: %v", rule.name, err)
		}
		if sol.Status != Optimal {
			t.Fatalf("%s: status %v", rule.name, sol.Status)
		}
		if math.Abs(sol.Objective-want) > 1e-9 {
			t.Fatalf("%s: objective %g, want %g", rule.name, sol.Objective, want)
		}
		if !tt.blandMode {
			t.Errorf("%s: Bland fallback never engaged — devex dodged the degeneracy pin", rule.name)
			continue
		}
		// The fallback restarts the reference framework and Bland-mode
		// pivots skip the weight update, so the weights must sit at 1.
		for j, w := range tt.pp.devex {
			//lint:ignore floatcmp resetWeights assigns the exact literal 1
			if w != 1 {
				t.Fatalf("%s: weight[%d] = %g after Bland fallback, want 1", rule.name, j, w)
			}
		}
	}
}

// TestResolvePricing pins the auto rule's size switch.
func TestResolvePricing(t *testing.T) {
	if got := resolvePricing(PricingAuto, pricingAutoCols-1); got != PricingDantzig {
		t.Errorf("auto below threshold: %v, want dantzig", got)
	}
	if got := resolvePricing(PricingAuto, pricingAutoCols); got != PricingPartial {
		t.Errorf("auto at threshold: %v, want partial", got)
	}
	for _, mode := range []PricingMode{PricingDantzig, PricingPartial} {
		if got := resolvePricing(mode, 1); got != mode {
			t.Errorf("explicit %v resolved to %v", mode, got)
		}
	}
}

// devexUpdate applies the reference-framework update the way partial
// pricing does — bumpWeight per column with a nonzero pivot-row entry,
// then sealUpdate — over the whole column space.
func devexUpdate(pp *pricer, alpha []float64, apiv float64, pc, leave int) {
	ref := pp.devex[pc] / (apiv * apiv)
	for j, aj := range alpha {
		if j != pc && aj != 0 {
			pp.bumpWeight(j, aj, ref)
		}
	}
	pp.sealUpdate(ref, pc, leave)
}

// TestDevexRecurrence hand-checks one reference-framework update:
// w_j ← max(w_j, (α_j/α_q)²·w_q), entering re-seeds at 1, leaver takes
// max(w_q/α_q², 1), zero pivot-row entries untouched.
func TestDevexRecurrence(t *testing.T) {
	var pp pricer
	pp.init(PricingPartial, 4)
	copy(pp.devex, []float64{1, 2, 3, 1})
	alpha := []float64{0.5, -2, 0, 1}
	devexUpdate(&pp, alpha, 1, 3, 0) // pc=3 (w_q=1, α_q=1), leave=0

	// ref = w_q/α_q² = 1. w_1 = max(2, 4·1) = 4; w_2 keeps 3 (α=0);
	// w_3 re-seeds 1; w_0 = max(ref, 1) = 1 as the leaver.
	want := []float64{1, 4, 3, 1}
	for j, w := range want {
		if !numeric.AlmostEqual(pp.devex[j], w) {
			t.Errorf("w[%d] = %g, want %g", j, pp.devex[j], w)
		}
	}
}

// TestDevexOverflowRestarts: an update past devexWeightCap restarts the
// framework at unit weights instead of carrying a blown-up reference.
func TestDevexOverflowRestarts(t *testing.T) {
	var pp pricer
	pp.init(PricingPartial, 2)
	alpha := []float64{1e6, 1}
	devexUpdate(&pp, alpha, 1e-3, 1, -1) // w_0 would become 1e18 > cap
	for j, w := range pp.devex {
		//lint:ignore floatcmp the overflow restart assigns the exact literal 1
		if w != 1 {
			t.Errorf("w[%d] = %g after overflow, want restart at 1", j, w)
		}
	}
	//lint:ignore floatcmp the overflow restart assigns the exact literal 1
	if pp.wmax != 1 {
		t.Errorf("wmax = %g after overflow, want 1", pp.wmax)
	}
}

// TestInheritWeights checks the snapshot adoption map: structural weights
// index-for-index, logicals row-for-row over the shared prefix, appended
// rows' logicals at 1, wmax recomputed.
func TestInheritWeights(t *testing.T) {
	var pp pricer
	pp.init(PricingPartial, 7) // 3 structural + 4 logicals
	parent := []float64{2, 3, 4, 5, 6}
	pp.inheritWeights(parent, 3) // parent had 2 rows
	want := []float64{2, 3, 4, 5, 6, 1, 1}
	for j, w := range want {
		//lint:ignore floatcmp inheritWeights copies parent weights bit-for-bit
		if pp.devex[j] != w {
			t.Errorf("w[%d] = %g, want %g", j, pp.devex[j], w)
		}
	}
	//lint:ignore floatcmp wmax recomputed as an exact copied maximum
	if pp.wmax != 6 {
		t.Errorf("wmax = %g, want 6", pp.wmax)
	}
}

// TestAllocsPricingKernels pins the per-pivot devex kernels to zero
// steady-state allocations — they run once per basis change per node
// across the whole branch-and-bound tree.
func TestAllocsPricingKernels(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	var pp pricer
	pp.init(PricingPartial, 256)
	s := rng.New(23, "lp-alloc-pricing")
	alpha := make([]float64, 256)
	for j := range alpha {
		alpha[j] = s.Uniform(-2, 2)
	}
	if got := testing.AllocsPerRun(100, func() {
		devexUpdate(&pp, alpha, 1.5, 3, 7)
	}); got != 0 {
		t.Errorf("devex update allocates %.0f per run, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() {
		pp.resetWeights()
	}); got != 0 {
		t.Errorf("resetWeights allocates %.0f per run, want 0", got)
	}
}

// TestAllocsPartialPrice pins the whole partial-pricing pass — candidate
// re-price plus a full refill wrap at optimality — to zero allocations on
// a solved revised core. The candidate list's capacity is preallocated,
// so steady-state refills must never grow it.
func TestAllocsPartialPrice(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	s := rng.NewReplicate(24, "lp-alloc-partial", 0)
	g := generateStaircaseLP(s, 30, 3)
	tt, sol, _, err := solveBasisRev(g.p, Options{Pricing: PricingPartial})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	cost := make([]float64, tt.width)
	copy(cost, g.p.obj)
	if got := testing.AllocsPerRun(100, func() {
		if pc := tt.partialPrice(cost); pc != -1 {
			t.Fatalf("partialPrice found entering column %d at optimum", pc)
		}
	}); got != 0 {
		t.Errorf("partialPrice allocates %.0f per run at steady state, want 0", got)
	}
}
