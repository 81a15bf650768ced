package lp

// The xl family: assignment-shaped DSCT instances at the scale where the
// pricing and presolve work of this package starts to matter — up to 10k
// tasks on a 100-machine fleet, each task eligible on a small subset of
// machines, so the matrix is a few nonzeros per column no matter how
// wide the fleet. The family crosses every auto threshold (sparse
// representation, partial pricing, presolve) and carries deliberate
// reduction food: singleton guard rows and pinned columns. The smoke
// test keeps a tier-1-sized member honest against the dantzig/
// no-presolve baseline; the benchmarks record the rule and layer
// speedups that BENCH_PR7.json pins.

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
)

// xlElig is the number of machines each xl task may run on: columns per
// task, nonzeros per assignment row.
const xlElig = 3

// generateXLLP builds an assignment-shaped instance: nTasks·xlElig
// processing-time variables (task j on its e-th eligible machine),
// per-task share rows Σ_e x_je <= f_j, per-machine capacity rows over
// the variables placed there, one global energy row, a singleton guard
// row on every 10th task's first variable, and every 20th task's third
// variable pinned to a zero-width box. Feasible and bounded by
// construction: a known x* satisfies every row with slack and the share
// rows cap every (positively priced) column.
func generateXLLP(s *rng.Source, nTasks, mMach int) *genLP {
	nv := nTasks * xlElig
	g := &genLP{xstar: make([]float64, nv), obj: make([]float64, nv)}
	g.p = NewProblem(nv)

	speed := make([]float64, mMach)
	power := make([]float64, mMach)
	for r := range speed {
		speed[r] = s.Uniform(0.5, 2)
		power[r] = s.Uniform(0.2, 1)
	}
	mach := make([]int, nv)
	colScale := make([]float64, nv)
	for j := 0; j < nTasks; j++ {
		base := s.Intn(mMach)
		// Task demands span orders of magnitude — compressible inference
		// workloads are not uniform — so whole columns scale by 10^±2.
		// Dantzig's rule chases the scaled reduced costs; partial pricing's
		// devex reference weights and the presolve scaling layer both exist
		// to be insensitive to exactly this.
		ts := powUniform(s, -2, 2)
		for e := 0; e < xlElig; e++ {
			v := j*xlElig + e
			mach[v] = (base + e*7) % mMach
			colScale[v] = ts
			g.obj[v] = s.Uniform(0.1, 1) * speed[mach[v]] * ts
			g.p.SetObjCoef(v, g.obj[v])
			g.xstar[v] = s.Uniform(0, 0.02) / ts
		}
	}
	// Pinned columns: the fixed-column reduction's food, the exact shape
	// branch-and-bound leaves behind when it fixes a variable.
	for j := 0; j < nTasks; j += 20 {
		v := j*xlElig + 2
		g.p.SetBounds(v, g.xstar[v], g.xstar[v])
	}
	// Per-task share rows.
	for j := 0; j < nTasks; j++ {
		terms := make([]Term, xlElig)
		dot := 0.0
		for e := 0; e < xlElig; e++ {
			v := j*xlElig + e
			terms[e] = Term{Var: v, Coef: colScale[v]}
			dot += colScale[v] * g.xstar[v]
		}
		g.p.AddConstraint(terms, LE, dot+s.Uniform(0.05, 0.5))
	}
	// Singleton guard rows: the singleton-row reduction's food.
	for j := 0; j < nTasks; j += 10 {
		v := j * xlElig
		g.p.AddConstraint([]Term{{Var: v, Coef: colScale[v]}}, LE,
			colScale[v]*g.xstar[v]+s.Uniform(0.01, 0.2))
	}
	// Per-machine capacity rows.
	machTerms := make([][]Term, mMach)
	machDot := make([]float64, mMach)
	for v := 0; v < nv; v++ {
		r := mach[v]
		machTerms[r] = append(machTerms[r], Term{Var: v, Coef: speed[r] * colScale[v]})
		machDot[r] += speed[r] * colScale[v] * g.xstar[v]
	}
	for r := 0; r < mMach; r++ {
		if len(machTerms[r]) == 0 {
			continue
		}
		g.p.AddConstraint(machTerms[r], LE, machDot[r]*s.Uniform(1.2, 2))
	}
	// Global energy budget.
	eterms := make([]Term, nv)
	var edot float64
	for v := 0; v < nv; v++ {
		eterms[v] = Term{Var: v, Coef: power[mach[v]] * colScale[v]}
		edot += power[mach[v]] * colScale[v] * g.xstar[v]
	}
	g.p.AddConstraint(eterms, LE, edot*s.Uniform(1.5, 3))
	return g
}

// powUniform draws 10^u with u uniform on [lo, hi].
func powUniform(s *rng.Source, lo, hi float64) float64 {
	return math.Pow(10, s.Uniform(lo, hi))
}

// TestXLAutoSmoke: a tier-1-sized xl member must cross every auto
// threshold — partial pricing, presolve — and the
// resulting all-auto solve must agree with the dantzig/no-presolve
// baseline on status, objective and the full solution vector.
func TestXLAutoSmoke(t *testing.T) {
	s := rng.NewReplicate(8, "lp-xl-smoke", 0)
	g := generateXLLP(s, 1900, 20)
	m, n := g.p.NumConstraints(), g.p.NumVars()
	if m < presolveAutoRows {
		t.Fatalf("smoke member has %d rows, below the presolve auto threshold %d", m, presolveAutoRows)
	}
	if n+m < pricingAutoCols {
		t.Fatalf("smoke member prices %d columns, below the pricing auto threshold %d", n+m, pricingAutoCols)
	}
	if got := resolvePricing(PricingAuto, n+m); got != PricingPartial {
		t.Fatalf("auto pricing resolves to %v, want partial", got)
	}
	if !resolvePresolve(PresolveAuto, m) {
		t.Fatal("auto presolve resolves to off")
	}

	base, _, err := SolveBasis(g.p, Options{Pricing: PricingDantzig, Presolve: PresolveOff})
	if err != nil {
		t.Fatal(err)
	}
	if base.Status != Optimal {
		t.Fatalf("baseline status %v", base.Status)
	}
	auto, _, err := SolveBasis(g.p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertAgreeXWithin(t, "auto-vs-baseline", base, auto, presolveXTol)

	// The known feasible point bounds the optimum from below.
	want := g.feasibleValue()
	if auto.Objective < want-1e-6*(1+want) {
		t.Errorf("objective %g below feasible value %g", auto.Objective, want)
	}
}

// xlBenchSizes are the xl benchmark shapes: a tier-1-scale member and
// the full 10k-task, 100-machine flagship the acceptance bar names.
var xlBenchSizes = []struct{ tasks, mach int }{
	{2000, 20}, {10000, 100},
}

// BenchmarkPricingXLLP: cold revised solves of the xl family under each
// pricing rule, presolve off, so the timing isolates the per-pivot
// pricing work — dantzig's full column scan against partial's
// candidate-list pricing. The pivot metric shows the rules' path lengths;
// the win is ns/op, not pivots.
func BenchmarkPricingXLLP(b *testing.B) {
	for _, sz := range xlBenchSizes {
		g := generateXLLP(rng.New(29, "lp-xl-pricing-bench"), sz.tasks, sz.mach)
		for _, mode := range []struct {
			name    string
			pricing PricingMode
		}{
			{"dantzig", PricingDantzig},
			{"partial", PricingPartial},
		} {
			b.Run(fmt.Sprintf("%s/tasks=%d,mach=%d", mode.name, sz.tasks, sz.mach), func(b *testing.B) {
				var iters int
				for i := 0; i < b.N; i++ {
					sol, _, err := SolveBasis(g.p, Options{Pricing: mode.pricing, Presolve: PresolveOff})
					if err != nil {
						b.Fatal(err)
					}
					if sol.Status != Optimal {
						b.Fatalf("status %v", sol.Status)
					}
					iters = sol.Iterations
				}
				b.ReportMetric(float64(iters), "pivots")
			})
		}
	}
}

// BenchmarkPresolveXLLP: cold revised solves of the xl family with the
// presolve layer off versus on, partial pricing both ways. The xl
// members carry the reductions' food (singleton guard rows, pinned
// columns), so the layer shrinks the basis the core has to factor and
// the column space it has to price.
func BenchmarkPresolveXLLP(b *testing.B) {
	for _, sz := range xlBenchSizes {
		g := generateXLLP(rng.New(31, "lp-xl-presolve-bench"), sz.tasks, sz.mach)
		for _, mode := range []struct {
			name     string
			presolve PresolveMode
		}{
			{"nopresolve", PresolveOff},
			{"presolve", PresolveOn},
		} {
			b.Run(fmt.Sprintf("%s/tasks=%d,mach=%d", mode.name, sz.tasks, sz.mach), func(b *testing.B) {
				var iters int
				for i := 0; i < b.N; i++ {
					sol, _, err := SolveBasis(g.p, Options{Pricing: PricingPartial, Presolve: mode.presolve})
					if err != nil {
						b.Fatal(err)
					}
					if sol.Status != Optimal {
						b.Fatalf("status %v", sol.Status)
					}
					iters = sol.Iterations
				}
				b.ReportMetric(float64(iters), "pivots")
			})
		}
	}
}
