package lp

import (
	"fmt"
	"testing"

	"repro/internal/rng"
)

// BenchmarkWarmVsColdLP isolates the warm-start effect from branch-and-
// bound tree shape: solve a random LP, append one binding bound row (the
// shape of a branching child), and compare re-solving from scratch
// against SolveFrom on the parent basis. The iteration metric shows why
// warm wins: a couple of dual pivots versus a full two-phase solve.
func BenchmarkWarmVsColdLP(b *testing.B) {
	for _, sz := range []struct{ n, m int }{{20, 40}, {40, 80}, {80, 160}} {
		g := generateFeasibleLP(rng.New(7, "lp-bench"), sz.n, sz.m)
		parent, bs, err := SolveBasis(g.p, Options{})
		if err != nil || parent.Status != Optimal {
			b.Fatalf("parent solve: %v / %v", err, parent.Status)
		}
		// Halve the largest variable: a binding cut, so the dual phase has
		// genuine repair work at every warm start.
		v := 0
		for i, x := range parent.X {
			if x > parent.X[v] {
				v = i
			}
		}
		child := g.p.Clone()
		child.AddConstraint([]Term{{Var: v, Coef: 1}}, LE, parent.X[v]/2)

		suffix := fmt.Sprintf("/n=%d,m=%d", sz.n, sz.m)
		b.Run("cold"+suffix, func(b *testing.B) {
			var iters int
			for i := 0; i < b.N; i++ {
				sol, _, err := SolveBasis(child, Options{})
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
		b.Run("warm"+suffix, func(b *testing.B) {
			var iters int
			for i := 0; i < b.N; i++ {
				sol, _, err := SolveFrom(child, bs, Options{})
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

// BenchmarkBoundsVsRowsLP: the identical boxed staircase instance with
// per-variable caps declared as implicit bounds (the bounded-variable
// method) versus expanded into explicit LE rows (the only encoding the
// one-sided method had). The box encoding keeps the basis at the staircase
// row count while the row encoding adds one row — and hence one basis
// dimension, one logical column and one more O(m) FTRAN lane — per capped
// variable; the basis-rows metric records that gap, pivots the path length.
func BenchmarkBoundsVsRowsLP(b *testing.B) {
	for _, sz := range []struct{ tasks, mach int }{{50, 3}, {100, 5}} {
		s := rng.New(17, "lp-bounds-bench")
		g := generateStaircaseLP(s, sz.tasks, sz.mach)
		for v := 0; v < g.p.NumVars(); v++ {
			g.p.SetBounds(v, 0, s.Uniform(0.3, 1))
		}
		rows := expandBounds(g.p)
		for _, mode := range []struct {
			name string
			p    *Problem
		}{
			{"bounds", g.p},
			{"rows", rows},
		} {
			b.Run(fmt.Sprintf("%s/tasks=%d,mach=%d", mode.name, sz.tasks, sz.mach), func(b *testing.B) {
				var iters int
				for i := 0; i < b.N; i++ {
					sol, _, err := SolveBasis(mode.p, Options{})
					if err != nil {
						b.Fatal(err)
					}
					if sol.Status != Optimal {
						b.Fatalf("status %v", sol.Status)
					}
					iters = sol.Iterations
				}
				b.ReportMetric(float64(mode.p.NumConstraints()), "basis-rows")
				b.ReportMetric(float64(iters), "pivots")
			})
		}
	}
}
