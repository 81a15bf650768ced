package incremental

import (
	"math"
	"testing"

	"repro/internal/lp"
)

// raceEnabled reports whether the race detector is active in this build;
// race_on_test.go flips it under the race build tag.
var raceEnabled = false

// warmFlushAllocs is TestAllocsWarmFlush's ceiling. Such a flush made 991
// allocations when every solve built a cut separator, and makes 93 with
// one root solve and no cut layer.
const warmFlushAllocs = 200

// TestAllocsWarmFlush pins the allocations of one warm Post + Flush in the
// slack regime (24 tasks on 3 machines, DeadlineScale 20, BudgetScale 50),
// where most roots are integral: a budget-change event that leaves the
// budget where it is, re-posted on an engine past its warm-up. The root
// relaxation is checked integral first, so the pin covers the flush that
// needs one root LP solve and no branching.
func TestAllocsWarmFlush(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	cfg := DefaultTraceConfig(61, 24+3+1, 24, 3)
	cfg.DeadlineScale = 20
	cfg.BudgetScale = 50
	trace, err := GenTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Options{})
	for i, ev := range trace {
		if _, err := e.Apply(ev); err != nil {
			t.Fatalf("warm-up event %d: %v", i, err)
		}
	}
	ev := Event{Kind: BudgetChange, Budget: e.budget}
	sol, err := e.Apply(ev)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Nodes != 1 {
		t.Fatalf("flush took %d nodes, want 1", sol.Nodes)
	}
	prob := e.mipProblem()
	rel, err := lp.Solve(prob.LP, lp.Options{})
	if err != nil {
		t.Fatalf("root relaxation: %v", err)
	}
	if rel.Status != lp.Optimal {
		t.Fatalf("root relaxation: status %v", rel.Status)
	}
	for _, v := range prob.Integers {
		if f := rel.X[v] - math.Floor(rel.X[v]); math.Min(f, 1-f) > 1e-6 {
			t.Fatalf("root relaxation fractional at x[%d] = %g", v, rel.X[v])
		}
	}
	got := testing.AllocsPerRun(20, func() {
		if _, err := e.Apply(ev); err != nil {
			t.Fatal(err)
		}
	})
	if got > warmFlushAllocs {
		t.Errorf("warm flush allocates %.0f per run, ceiling %d", got, warmFlushAllocs)
	}
}
