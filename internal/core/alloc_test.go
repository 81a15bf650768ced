package core

import (
	"math"
	"testing"

	"repro/internal/machine"
	"repro/internal/rng"
	"repro/internal/task"
)

// raceEnabled reports whether the race detector is active in this build;
// race_on_test.go flips it under the race build tag.
var raceEnabled = false

// TestAllocsLineSearchValue pins one V(p) evaluation on a prepared
// Allocator — the step every probe of RefineProfile's line searches
// repeats — to zero allocations.
func TestAllocsLineSearchValue(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	in := genInstance(t, 41, 100, 5, 0.35, 0.5, 5)
	p := NaiveProfile(in)
	for _, opts := range []GreedyOptions{{}, {UseScan: true}} {
		alloc := NewAllocator(in.Tasks, opts)
		if got := testing.AllocsPerRun(50, func() {
			p[0] *= 0.999
			alloc.total(in, p)
		}); got != 0 {
			t.Errorf("UseScan=%v: V(p) evaluation allocates %.0f per run, want 0", opts.UseScan, got)
		}
	}
}

// refinedForAllocs returns a refinement run on in, the profile
// RefineProfile converged to and its value. With priced set, the run holds
// the dual bound at that profile, as during a refinement's last polish
// pass; otherwise no search is closed by the bound.
func refinedForAllocs(t *testing.T, in *task.Instance, priced bool) (*refiner, Profile, float64) {
	t.Helper()
	opts := RefineOptions{}
	opts.defaults()
	alloc := NewAllocator(in.Tasks, opts.Greedy)
	p, _ := refineProfile(alloc, in, NaiveProfile(in), opts)
	rf := newRefiner(alloc, in, opts)
	if priced {
		rf.reprice(p)
	}
	return rf, p, alloc.total(in, p)
}

// table1ForAllocs is a Table 1 instance, slack enough that the dual bound
// closes every line search at its refined profile.
func table1ForAllocs(t *testing.T) *task.Instance {
	return genInstance(t, 41, 100, 5, 0.35, 0.5, 5)
}

// fig6bForAllocs is a Fig 6b two-machine instance whose refined profile
// leaves directions open to the dual bound, so polish still searches.
func fig6bForAllocs(t *testing.T) *task.Instance {
	t.Helper()
	cfg, err := task.PaperFig6(100, task.EarliestHighEfficient, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	in, err := task.Generate(rng.NewReplicate(1, "fig6b/beta=0.1", 1), cfg, machine.TwoMachineScenario())
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestAllocsLineSearchStop pins a line search that the concave envelope
// stops early to zero allocations. The run holds no dual bound, so the
// searches at the refined Table 1 profile reach the envelope.
func TestAllocsLineSearchStop(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	rf, p, cur := refinedForAllocs(t, table1ForAllocs(t), false)
	in := rf.in
	dMax := in.MaxDeadline()
	for r := range p {
		for rp := range p {
			if r == rp || p[rp] <= 0 || p[r] >= dMax {
				continue
			}
			eMax := math.Min(p[rp]*in.Machines[rp].Power, (dMax-p[r])*in.Machines[r].Power)
			exchange := func(q Profile, e float64) {
				q[r] += e / in.Machines[r].Power
				q[rp] -= e / in.Machines[rp].Power
			}
			before := rf.alloc.probes
			if _, gain := rf.maximizeAlong(p, cur, exchange, eMax, math.Inf(1)); gain != 0 || rf.alloc.probes-before >= 2*rf.opts.LineSearchIters {
				continue // the search ran to the end
			}
			if got := testing.AllocsPerRun(50, func() {
				rf.maximizeAlong(p, cur, exchange, eMax, math.Inf(1))
			}); got != 0 {
				t.Errorf("stopped line search allocates %.0f per run, want 0", got)
			}
			return
		}
	}
	t.Fatal("no exchange line search at the refined profile was stopped by the envelope")
}

// TestAllocsDualPass pins the dual pass (one allocation, the dual, the
// bound and the supergradient) and a line search the bound closes to zero
// allocations.
func TestAllocsDualPass(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	rf, p, cur := refinedForAllocs(t, table1ForAllocs(t), true)
	if got := testing.AllocsPerRun(50, func() { rf.reprice(p) }); got != 0 {
		t.Errorf("dual pass allocates %.0f per run, want 0", got)
	}
	in := rf.in
	extend := func(q Profile, e float64) { q[0] += e / in.Machines[0].Power }
	slope := rf.ascent(0, 1/in.Machines[0].Power)
	eMax := (in.MaxDeadline() - p[0]) * in.Machines[0].Power
	before := rf.alloc.probes
	if got := testing.AllocsPerRun(50, func() { rf.maximizeAlong(p, cur, extend, eMax, slope) }); got != 0 {
		t.Errorf("closed line search allocates %.0f per run, want 0", got)
	}
	if rf.alloc.probes != before {
		t.Fatal("the bound left the search open; the pin measures the wrong path")
	}
}

// TestAllocsPolish pins a polish pass at a converged profile, every
// refinement ends in one, to zero allocations: its direction is reused
// across attempts, the bound is checked in place and no line search
// clones a profile. At the Table 1 profile the bound closes every
// direction; at the Fig 6b two-machine one some stay open and are
// searched.
func TestAllocsPolish(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	for _, tc := range []struct {
		name     string
		in       *task.Instance
		searches bool
	}{{"table1", table1ForAllocs(t), false}, {"fig6b", fig6bForAllocs(t), true}} {
		rf, p, cur := refinedForAllocs(t, tc.in, true)
		before := rf.alloc.probes
		if got := testing.AllocsPerRun(20, func() { rf.polish(p, cur) }); got != 0 {
			t.Errorf("%s: polish pass allocates %.0f per run, want 0", tc.name, got)
		}
		if searched := rf.alloc.probes != before; searched != tc.searches {
			t.Errorf("%s: polish ran a line search: %v, want %v; the pin measures another path", tc.name, searched, tc.searches)
		}
	}
}

// TestAllocsFixedAssignment pins a reused FixedAssignment evaluation — the
// branch-and-bound heuristic's and the extraction's inner step — to zero
// allocations, across assignments that move tasks between machines.
func TestAllocsFixedAssignment(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	in := genInstance(t, 43, 24, 3, 0.35, 0.3, 5)
	assigns := make([][]int, 3)
	for k := range assigns {
		assigns[k] = make([]int, in.N())
		for j := range assigns[k] {
			assigns[k][j] = (j + k) % 3
		}
	}
	times := make([]float64, in.N())
	var fx FixedAssignment
	fx.Solve(in.Tasks, in.Machines, in.Budget, assigns[0], times)
	k := 0
	if got := testing.AllocsPerRun(50, func() {
		k++
		fx.Solve(in.Tasks, in.Machines, in.Budget, assigns[k%3], times)
	}); got != 0 {
		t.Errorf("fixed-assignment evaluation allocates %.0f per run, want 0", got)
	}
}
