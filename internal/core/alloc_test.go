package core

import "testing"

// raceEnabled reports whether the race detector is active in this build;
// race_on_test.go flips it under the race build tag.
var raceEnabled = false

// TestAllocsLineSearchValue pins one V(p) evaluation on a prepared
// Allocator — the step RefineProfile's line searches repeat about a
// thousand times per solve — to zero allocations.
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
