package core_test

// Cross-checks of the combinatorial solvers against the simplex optimum of
// model.BuildFR. They live in the external test package because
// internal/model imports internal/core.

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/lp"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/task"
)

// lpInstance draws the same instances as the package-internal genInstance.
func lpInstance(t *testing.T, seed int64, n, m int, rho, beta, thetaMax float64) *task.Instance {
	t.Helper()
	cfg := task.DefaultConfig(n, rho, beta)
	cfg.ThetaMax = thetaMax
	in, err := task.GenerateUniformFleet(rng.New(seed, "core"), cfg, m)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestGreedyMatchesLPSingleMachine: with one machine and ample energy, the
// greedy must equal the LP optimum of the fractional relaxation.
func TestGreedyMatchesLPSingleMachine(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		in := lpInstance(t, 200+int64(trial), 15, 1, 0.5, 1.0, 4.0)
		in.Budget = 1e12 // effectively unconstrained energy

		caps := core.Caps(in, core.Profile{in.MaxDeadline()})
		f := core.GreedyAllocate(in.Tasks, caps, core.GreedyOptions{})
		got := core.TotalAccuracy(in.Tasks, f)

		sol, err := lp.Solve(model.BuildFR(in).Prob, lp.Options{})
		if err != nil || sol.Status != lp.Optimal {
			t.Fatalf("trial %d: LP %v %v", trial, sol.Status, err)
		}
		if math.Abs(got-sol.Objective) > 1e-5*math.Max(1, sol.Objective) {
			t.Errorf("trial %d: greedy %g != LP %g", trial, got, sol.Objective)
		}
	}
}

// TestSolveFRMatchesLP is the central correctness test: the combinatorial
// DSCT-EA-FR-OPT must match the LP optimum of the same relaxation.
func TestSolveFRMatchesLP(t *testing.T) {
	cases := []struct {
		seed          int64
		n, m          int
		rho, beta, mu float64
	}{
		{1, 10, 2, 0.5, 0.5, 1},
		{2, 12, 3, 0.35, 0.5, 4},
		{3, 15, 2, 1.0, 0.3, 10},
		{4, 8, 4, 0.2, 0.7, 2},
		{5, 20, 3, 0.05, 0.2, 20},
		{6, 10, 2, 0.01, 0.4, 49}, // strict deadlines, skewed tasks
		{7, 12, 5, 0.35, 0.1, 5},  // very tight energy
		{8, 10, 2, 2.0, 1.0, 1},   // loose everything
	}
	for _, c := range cases {
		cfg := task.DefaultConfig(c.n, c.rho, c.beta)
		cfg.ThetaMax = cfg.ThetaMin * c.mu
		in, err := task.GenerateUniformFleet(rng.New(c.seed, "frlp"), cfg, c.m)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := core.SolveFR(in, core.FROptions{})
		if err != nil {
			t.Fatalf("seed %d: %v", c.seed, err)
		}
		ref, err := lp.Solve(model.BuildFR(in).Prob, lp.Options{})
		if err != nil || ref.Status != lp.Optimal {
			t.Fatalf("seed %d: LP %v %v", c.seed, ref.Status, err)
		}
		rel := math.Abs(sol.TotalAccuracy-ref.Objective) / math.Max(1, ref.Objective)
		if rel > 2e-4 {
			t.Errorf("seed %d (n=%d m=%d rho=%g beta=%g mu=%g): FR-OPT %.9g vs LP %.9g (rel %g)",
				c.seed, c.n, c.m, c.rho, c.beta, c.mu, sol.TotalAccuracy, ref.Objective, rel)
		}
		// FR-OPT is a feasible solution, hence also a lower bound.
		if sol.TotalAccuracy > ref.Objective+1e-5*math.Max(1, ref.Objective) {
			t.Errorf("seed %d: FR-OPT %g exceeds LP optimum %g", c.seed, sol.TotalAccuracy, ref.Objective)
		}
	}
}
