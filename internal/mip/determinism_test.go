package mip

// Determinism tests: a solve repeats itself bit for bit — its solution,
// node count, solve and probe counters and dual bound — when it runs again
// on a caller-owned lp.Workspace that has already solved other problems.
// The incremental engine relies on that when it reuses one workspace
// across its re-solves.

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/lp"
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

// sameSearch reports whether two results are the same search: the same
// solution, node count, solve and probe counters and dual bound.
func sameSearch(a, b *Result) bool {
	return sameSolution(a, b) && a.Nodes == b.Nodes &&
		a.WarmSolves == b.WarmSolves && a.ColdSolves == b.ColdSolves &&
		a.InheritFallbacks == b.InheritFallbacks && a.StrongBranches == b.StrongBranches &&
		math.Float64bits(a.Bound) == math.Float64bits(b.Bound)
}

// usedWorkspace returns a caller-owned workspace that has already solved
// a problem of another shape.
func usedWorkspace(t *testing.T) *lp.Workspace {
	t.Helper()
	ws := lp.NewWorkspace()
	if _, err := Solve(warmKnapsack(5), Options{Workspace: ws}); err != nil {
		t.Fatal(err)
	}
	return ws
}

// checkRepeat solves prob with opts, then again on ws, and fails unless
// the two runs are the same search. It returns the first run's result.
func checkRepeat(t *testing.T, label string, prob *Problem, opts Options, ws *lp.Workspace) *Result {
	t.Helper()
	fresh, err := Solve(prob, opts)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	opts.Workspace = ws
	again, err := Solve(prob, opts)
	if err != nil {
		t.Fatalf("%s on a used workspace: %v", label, err)
	}
	if !sameSearch(fresh, again) {
		t.Errorf("%s: a used workspace ran another search: %v obj %.17g, %d nodes, %d/%d/%d warm/cold/fallback, %d probes, bound %.17g; fresh %v obj %.17g, %d nodes, %d/%d/%d, %d probes, bound %.17g",
			label, again.Status, again.Objective, again.Nodes, again.WarmSolves, again.ColdSolves, again.InheritFallbacks, again.StrongBranches, again.Bound,
			fresh.Status, fresh.Objective, fresh.Nodes, fresh.WarmSolves, fresh.ColdSolves, fresh.InheritFallbacks, fresh.StrongBranches, fresh.Bound)
	}
	return fresh
}

// roundDown is a rounding hook that keeps only the variables the
// relaxation already sets near 1, so the capacity row stays feasible.
func roundDown(x []float64) ([]float64, bool) {
	fixed := make([]float64, len(x))
	for i, v := range x {
		if v > 0.99 {
			fixed[i] = 1
		}
	}
	return fixed, true
}

// TestSameSearchAtAnyWorkers: Options.Workers is ignored, so what remains
// is the serial search's promise — a solve on a used workspace is the
// fresh solve's search, with or without a node cap. Uncapped, every trial
// proves optimality.
func TestSameSearchAtAnyWorkers(t *testing.T) {
	ws := usedWorkspace(t)
	for trial := 0; trial < 6; trial++ {
		prob := detKnapsack(trial)
		for _, maxNodes := range []int{0, 7, 30} {
			res := checkRepeat(t, fmt.Sprintf("trial %d cap %d", trial, maxNodes), prob, Options{MaxNodes: maxNodes}, ws)
			if maxNodes == 0 && res.Status != Optimal {
				t.Fatalf("trial %d: status %v", trial, res.Status)
			}
		}
	}
}

// TestDeterministicWithRoundingHook: with the rounding hook on warm node
// solves, the search repeats on a used workspace and proves optimality.
func TestDeterministicWithRoundingHook(t *testing.T) {
	res := checkRepeat(t, "hook", detKnapsack(100), Options{Rounding: roundDown}, usedWorkspace(t))
	if res.Status != Optimal {
		t.Fatalf("status %v", res.Status)
	}
}

// TestWorkspaceReuseAcrossWorkers: the same promise on the workspace's
// aliasing-heavy paths — the default basis-publishing chain, the cold
// basis-free path under DisableWarmStart (whose Solutions alias workspace
// buffers) and the rounding hook on top of it, called with such an
// aliased x — capped and uncapped.
func TestWorkspaceReuseAcrossWorkers(t *testing.T) {
	ws := usedWorkspace(t)
	for trial := 0; trial < 3; trial++ {
		prob := detKnapsack(300 + trial)
		for _, mode := range []struct {
			name string
			opts Options
		}{
			{"warm", Options{}},
			{"cold", Options{DisableWarmStart: true}},
			{"cold+hook", Options{DisableWarmStart: true, Rounding: roundDown}},
		} {
			for _, maxNodes := range []int{0, 7} {
				opts := mode.opts
				opts.MaxNodes = maxNodes
				res := checkRepeat(t, fmt.Sprintf("trial %d %s cap %d", trial, mode.name, maxNodes), prob, opts, ws)
				if maxNodes == 0 && res.Status != Optimal {
					t.Fatalf("trial %d %s: status %v", trial, mode.name, res.Status)
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

// TestDeterministicBranchAndCutModes: reliability branching (whose
// pseudo-cost observations live on node-local immutable chains) and
// plunging repeat on a used workspace and prove optimality, with warm or
// cold node solves.
func TestDeterministicBranchAndCutModes(t *testing.T) {
	ws := usedWorkspace(t)
	for trial := 0; trial < 4; trial++ {
		prob := detKnapsack(400 + trial)
		for _, mode := range []struct {
			name string
			opts Options
		}{
			{"default", Options{}},
			{"cold", Options{DisableWarmStart: true}},
		} {
			res := checkRepeat(t, fmt.Sprintf("trial %d %s", trial, mode.name), prob, mode.opts, ws)
			if res.Status != Optimal {
				t.Fatalf("trial %d %s: status %v", trial, mode.name, res.Status)
			}
		}
	}
}
