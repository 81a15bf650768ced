package mip

// Determinism tests for parallel branch-and-bound: the solver must return
// bit-identical incumbents, and run the same search, at any Workers
// setting. These tests are meant
// to run under the race detector (scripts/verify.sh runs
// `go test -race ./internal/mip`), where goroutine schedules are
// perturbed enough to expose order-dependent incumbent selection.

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// detKnapsack builds the trial-th seeded knapsack instance.
func detKnapsack(trial int) *Problem {
	src := rng.NewReplicate(23, "det-workers", trial)
	n := 13 + src.Intn(5) // 13..17 items: a few hundred nodes each
	values := make([]float64, n)
	weights := make([]float64, n)
	var total float64
	for i := range values {
		values[i] = src.Uniform(1, 100)
		weights[i] = src.Uniform(1, 50)
		total += weights[i]
	}
	return knapsackProblem(values, weights, total*src.Uniform(0.3, 0.6))
}

// sameSolution reports whether two results carry bit-identical objectives
// and solution vectors.
func sameSolution(a, b *Result) bool {
	if a.Status != b.Status || len(a.X) != len(b.X) {
		return false
	}
	if math.Float64bits(a.Objective) != math.Float64bits(b.Objective) {
		return false
	}
	for i := range a.X {
		if math.Float64bits(a.X[i]) != math.Float64bits(b.X[i]) {
			return false
		}
	}
	return true
}

// TestDeterministicAcrossWorkers: identical Status, Objective and X at
// Workers = 1, 4 and 8 on a batch of seeded knapsacks.
func TestDeterministicAcrossWorkers(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		prob := detKnapsack(trial)
		var base *Result
		for _, workers := range []int{1, 4, 8} {
			res, err := Solve(prob, Options{Workers: workers})
			if err != nil {
				t.Fatalf("trial %d workers=%d: %v", trial, workers, err)
			}
			if res.Status != Optimal {
				t.Fatalf("trial %d workers=%d: status %v", trial, workers, res.Status)
			}
			if base == nil {
				base = res
				continue
			}
			if !sameSolution(base, res) {
				t.Errorf("trial %d: workers=%d solution differs from workers=1:\nobj %.17g vs %.17g\nX    %v\nvs   %v",
					trial, workers, base.Objective, res.Objective, base.X, res.X)
			}
		}
	}
}

// TestSameSearchAtAnyWorkers: Workers > 1 only computes node expansions
// ahead of the search, so the search itself — its node count, its solve
// and probe counters, its dual bound and its incumbent — is the one
// Workers = 1 runs, with or without a node cap.
func TestSameSearchAtAnyWorkers(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		prob := detKnapsack(trial)
		for _, maxNodes := range []int{0, 7, 30} {
			var base *Result
			for _, workers := range []int{1, 2, 4} {
				res, err := Solve(prob, Options{Workers: workers, MaxNodes: maxNodes})
				if err != nil {
					t.Fatalf("trial %d cap %d workers=%d: %v", trial, maxNodes, workers, err)
				}
				if base == nil {
					base = res
					continue
				}
				if !sameSolution(base, res) || res.Nodes != base.Nodes ||
					res.WarmSolves != base.WarmSolves || res.ColdSolves != base.ColdSolves ||
					res.InheritFallbacks != base.InheritFallbacks || res.StrongBranches != base.StrongBranches ||
					math.Float64bits(res.Bound) != math.Float64bits(base.Bound) {
					t.Errorf("trial %d cap %d: workers=%d ran another search: %v obj %.17g, %d nodes, %d/%d/%d warm/cold/fallback, %d probes, bound %.17g; workers=1 %v obj %.17g, %d nodes, %d/%d/%d, %d probes, bound %.17g",
						trial, maxNodes, workers, res.Status, res.Objective, res.Nodes, res.WarmSolves, res.ColdSolves, res.InheritFallbacks, res.StrongBranches, res.Bound,
						base.Status, base.Objective, base.Nodes, base.WarmSolves, base.ColdSolves, base.InheritFallbacks, base.StrongBranches, base.Bound)
				}
			}
		}
	}
}

// TestDeterministicWithRoundingHook: the depth-based heuristic trigger
// must keep incumbent selection deterministic under parallelism too.
func TestDeterministicWithRoundingHook(t *testing.T) {
	prob := detKnapsack(100)
	hook := func(x []float64) ([]float64, bool) {
		fixed := make([]float64, len(x))
		for i, v := range x {
			if v > 0.99 { // conservative rounding keeps the capacity row feasible
				fixed[i] = 1
			}
		}
		return fixed, true
	}
	var base *Result
	for _, workers := range []int{1, 4, 8} {
		res, err := Solve(prob, Options{Workers: workers, Rounding: hook})
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != Optimal {
			t.Fatalf("workers=%d: status %v", workers, res.Status)
		}
		if base == nil {
			base = res
			continue
		}
		if !sameSolution(base, res) {
			t.Errorf("workers=%d solution differs:\nobj %.17g vs %.17g", workers, base.Objective, res.Objective)
		}
	}
}

// TestWorkspaceReuseAcrossWorkers: every worker goroutine reuses one
// private lp.Workspace across all its node solves, so this test — meant to
// run under the race detector like the rest of this file — exercises the
// aliasing-heavy workspace paths at Workers = 1, 4 and 8: the default
// basis-publishing chain, the cold basis-free path under DisableWarmStart
// (whose Solutions alias workspace buffers) and the rounding hook on top
// of it, called concurrently with such an aliased x. Solutions must be
// bit-identical to serial at every worker count. Node counts ARE pinned at
// Workers = 1 — a serial search is fully schedule-determined, so two runs
// must visit exactly the same tree — while at higher worker counts only
// the incumbent is asserted (a parallel worker may legitimately dequeue a
// node that an in-flight incumbent would have pruned, so Nodes is
// scheduling-dependent even though the incumbent is not).
func TestWorkspaceReuseAcrossWorkers(t *testing.T) {
	hook := func(x []float64) ([]float64, bool) {
		fixed := make([]float64, len(x))
		for i, v := range x {
			if v > 0.99 {
				fixed[i] = 1
			}
		}
		return fixed, true
	}
	for trial := 0; trial < 3; trial++ {
		prob := detKnapsack(300 + trial)
		for _, mode := range []struct {
			name string
			opts Options
		}{
			{"warm", Options{}},
			{"cold", Options{DisableWarmStart: true}},
			{"cold+hook", Options{DisableWarmStart: true, Rounding: hook}},
		} {
			var base *Result
			for _, workers := range []int{1, 4, 8} {
				opts := mode.opts
				opts.Workers = workers
				res, err := Solve(prob, opts)
				if err != nil {
					t.Fatalf("trial %d %s workers=%d: %v", trial, mode.name, workers, err)
				}
				if res.Status != Optimal {
					t.Fatalf("trial %d %s workers=%d: status %v", trial, mode.name, workers, res.Status)
				}
				if workers == 1 {
					// Serial reruns must retrace the identical tree.
					again, err := Solve(prob, opts)
					if err != nil {
						t.Fatalf("trial %d %s workers=1 rerun: %v", trial, mode.name, err)
					}
					if again.Nodes != res.Nodes {
						t.Errorf("trial %d %s: workers=1 node count not reproducible: %d vs %d",
							trial, mode.name, res.Nodes, again.Nodes)
					}
				}
				if base == nil {
					base = res
					continue
				}
				if math.Float64bits(base.Objective) != math.Float64bits(res.Objective) {
					t.Errorf("trial %d %s: workers=%d incumbent objective %.17g differs from workers=1 %.17g",
						trial, mode.name, workers, res.Objective, base.Objective)
				}
				if !sameSolution(base, res) {
					t.Errorf("trial %d %s: workers=%d solution differs from workers=1:\nobj %.17g vs %.17g",
						trial, mode.name, workers, base.Objective, res.Objective)
				}
			}
		}
	}
}

// TestWarmStartAccounting: warm starts dominate once the tree has depth,
// the counters add up to the node count, and disabling warm starts leaves
// the answer unchanged.
func TestWarmStartAccounting(t *testing.T) {
	prob := detKnapsack(200)
	warm, err := Solve(prob, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != Optimal {
		t.Fatalf("status %v", warm.Status)
	}
	if warm.WarmSolves+warm.ColdSolves != warm.Nodes {
		t.Errorf("warm %d + cold %d != nodes %d", warm.WarmSolves, warm.ColdSolves, warm.Nodes)
	}
	if warm.Nodes > 3 && warm.WarmSolves == 0 {
		t.Errorf("no warm-started solves across %d nodes", warm.Nodes)
	}

	cold, err := Solve(prob, Options{DisableWarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	if cold.WarmSolves != 0 {
		t.Errorf("DisableWarmStart still warm-started %d solves", cold.WarmSolves)
	}
	if cold.Status != warm.Status || math.Abs(cold.Objective-warm.Objective) > 1e-6 {
		t.Errorf("cold obj %g != warm obj %g", cold.Objective, warm.Objective)
	}
}

// TestDeterministicBranchAndCutModes: the search machinery — reliability
// branching (whose pseudo-cost observations live on
// node-local immutable chains precisely so that worker scheduling cannot
// perturb them) and plunging node order — must keep incumbents
// bit-identical at Workers = 1, 4 and 8, with warm or cold node solves.
func TestDeterministicBranchAndCutModes(t *testing.T) {
	modes := []struct {
		name string
		opts Options
	}{
		{"default", Options{}},
		{"cold", Options{DisableWarmStart: true}},
	}
	for trial := 0; trial < 4; trial++ {
		prob := detKnapsack(400 + trial)
		for _, mode := range modes {
			var base *Result
			for _, workers := range []int{1, 4, 8} {
				opts := mode.opts
				opts.Workers = workers
				res, err := Solve(prob, opts)
				if err != nil {
					t.Fatalf("trial %d %s workers=%d: %v", trial, mode.name, workers, err)
				}
				if res.Status != Optimal {
					t.Fatalf("trial %d %s workers=%d: status %v", trial, mode.name, workers, res.Status)
				}
				if base == nil {
					base = res
					continue
				}
				if !sameSolution(base, res) {
					t.Errorf("trial %d %s: workers=%d solution differs from workers=1:\nobj %.17g vs %.17g\nX    %v\nvs   %v",
						trial, mode.name, workers, base.Objective, res.Objective, base.X, res.X)
				}
			}
		}
	}
}
