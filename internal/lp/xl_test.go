package lp

// The xl family: assignment-shaped DSCT instances far wider than any
// model builder produces — up to 10k tasks on a 100-machine fleet, each
// task eligible on a small subset of machines, so the matrix is a few
// nonzeros per column no matter how wide the fleet. The family carries
// per-task magnitudes spanning four orders, singleton guard rows and
// pinned columns. The smoke test certifies a tier-1-sized member's
// optimum with its duals; the benchmark times cold solves of the family
// under Dantzig pricing.

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
		// workloads are not uniform — so whole columns scale by 10^±2, and
		// Dantzig's rule chases the scaled reduced costs.
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
	// Pinned columns: the exact shape branch-and-bound leaves behind when
	// it fixes a variable.
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
	// Singleton guard rows: one-term bounds written as rows.
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

// TestXLAutoSmoke: a tier-1-sized xl member (7,811 priced columns) must
// solve Optimal, reach at least the value of its known feasible point,
// and carry duals that Certify accepts at 1e-6.
func TestXLAutoSmoke(t *testing.T) {
	s := rng.NewReplicate(8, "lp-xl-smoke", 0)
	g := generateXLLP(s, 1900, 20)
	ds, err := SolveWithDuals(g.p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Status != Optimal {
		t.Fatalf("status %v", ds.Status)
	}
	// The known feasible point bounds the optimum from below.
	want := g.feasibleValue()
	if ds.Objective < want-1e-6*(1+want) {
		t.Errorf("objective %g below feasible value %g", ds.Objective, want)
	}
	if err := Certify(g.p, ds.X, ds.Duals, 1e-6); err != nil {
		t.Errorf("certificate: %v", err)
	}
}

// xlBenchSizes are the xl benchmark shapes: a tier-1-scale member and
// the full 10k-task, 100-machine flagship the acceptance bar names.
var xlBenchSizes = []struct{ tasks, mach int }{
	{2000, 20}, {10000, 100},
}

// BenchmarkPricingXLLP: cold revised solves of the xl family. The
// sub-benchmarks keep their dantzig/ prefix so benchjson -diff lines
// them up with records taken while a second pricing rule existed.
func BenchmarkPricingXLLP(b *testing.B) {
	for _, sz := range xlBenchSizes {
		g := generateXLLP(rng.New(29, "lp-xl-pricing-bench"), sz.tasks, sz.mach)
		b.Run(fmt.Sprintf("dantzig/tasks=%d,mach=%d", sz.tasks, sz.mach), func(b *testing.B) {
			var iters int
			for i := 0; i < b.N; i++ {
				sol, _, err := SolveBasis(g.p, Options{})
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
