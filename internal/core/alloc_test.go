package core

import (
	"math"
	"testing"
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

// refinedForAllocs returns a refinement run on a Table 1 instance, the
// profile RefineProfile converged to and its value.
func refinedForAllocs(t *testing.T) (*refiner, Profile, float64) {
	t.Helper()
	in := genInstance(t, 41, 100, 5, 0.35, 0.5, 5)
	opts := RefineOptions{}
	opts.defaults()
	alloc := NewAllocator(in.Tasks, opts.Greedy)
	p, _ := refineProfile(alloc, in, NaiveProfile(in), opts)
	return newRefiner(alloc, in, opts), p, alloc.total(in, p)
}

// TestAllocsLineSearchStop pins a line search that the concave envelope
// stops early — most searches of a Table 1 solve — to zero allocations.
func TestAllocsLineSearchStop(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	rf, p, cur := refinedForAllocs(t)
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
			if _, gain := rf.maximizeAlong(p, cur, exchange, eMax); gain != 0 || rf.alloc.probes-before >= 2*rf.opts.LineSearchIters {
				continue // the search ran to the end
			}
			if got := testing.AllocsPerRun(50, func() {
				rf.maximizeAlong(p, cur, exchange, eMax)
			}); got != 0 {
				t.Errorf("stopped line search allocates %.0f per run, want 0", got)
			}
			return
		}
	}
	t.Fatal("no exchange line search at the refined profile was stopped by the envelope")
}

// TestAllocsPolish pins a polish pass at a converged profile — every
// refinement ends in one — to zero allocations: its direction is reused
// across attempts and no line search clones a profile.
func TestAllocsPolish(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	rf, p, cur := refinedForAllocs(t)
	before := rf.alloc.probes
	if got := testing.AllocsPerRun(20, func() { rf.polish(p, cur) }); got != 0 {
		t.Errorf("polish pass allocates %.0f per run, want 0", got)
	}
	if rf.alloc.probes == before {
		t.Fatal("polish ran no line search; the pin measures nothing")
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
