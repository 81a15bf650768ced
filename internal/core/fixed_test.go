package core

import (
	"math"
	"testing"

	"repro/internal/machine"
	"repro/internal/numeric"
	"repro/internal/task"
)

// TestFixedAssignmentHandCase works the accuracy-per-Joule greedy by hand.
// Machine 0 runs 100 GFLOP/s at 100 W (1 GFLOP/J), machine 1 100 GFLOP/s
// at 50 W (2 GFLOP/J). Each task's segments are 50 GFLOPs (0.5 s) wide.
func TestFixedAssignmentHandCase(t *testing.T) {
	fleet := machine.Fleet{{Name: "r0", Speed: 100, Power: 100}, {Name: "r1", Speed: 100, Power: 50}}
	tasks := func(d0 float64) []task.Task {
		return []task.Task{
			mkTask(t, "t0", d0, []float64{0, 50, 100}, []float64{0, 0.5, 0.6}), // slopes 0.01, 0.002
			mkTask(t, "t1", 2, []float64{0, 50, 100}, []float64{0, 0.25, 0.3}), // slopes 0.005, 0.001
		}
	}
	for _, c := range []struct {
		name   string
		d0     float64
		budget float64
		assign []int
		want   []float64
		acc    float64
	}{
		// Accuracy per Joule: t0s0 0.01 and t1s0 0.005·2 tie (task 0 first),
		// then t0s1 and t1s1 at 0.002. t0s0 takes 0.5 s (50 J), t1s0 the
		// remaining 10 J: 0.2 s on machine 1; the rest finds no budget.
		{"budget", 1, 60, []int{0, 1}, []float64{0.5, 0.2}, 0.5 + 0.1},
		{"ample", 1, 1000, []int{0, 1}, []float64{1, 1}, 0.6 + 0.3},
		// t0's deadline leaves 0.1 s for its second segment.
		{"deadline", 0.6, 1000, []int{0, 1}, []float64{0.6, 1}, 0.52 + 0.3},
		// Both on machine 1: t0s1 draws the 0.5 s t1s0 left before d0, and
		// t1s1 what remains after it.
		{"shared", 1, 1000, []int{1, 1}, []float64{1, 1}, 0.6 + 0.3},
	} {
		var fx FixedAssignment
		got := make([]float64, 2)
		acc := fx.Solve(tasks(c.d0), fleet, c.budget, c.assign, got)
		for j := range got {
			if !numeric.AlmostEqual(got[j], c.want[j]) {
				t.Errorf("%s: t = %v, want %v", c.name, got, c.want)
				break
			}
		}
		if !numeric.AlmostEqual(acc, c.acc) {
			t.Errorf("%s: accuracy %.15g, want %.15g", c.name, acc, c.acc)
		}
	}
}

// TestFixedAssignmentMatchesValueSingleMachine: on one machine the fixed
// assignment is the fractional relaxation, and capping every prefix at the
// budget's busy time p = min(B/P, d_max) is the naive profile, so the
// evaluator must match V(p) of Algorithm 1.
func TestFixedAssignmentMatchesValueSingleMachine(t *testing.T) {
	var fx FixedAssignment
	for trial := 0; trial < 12; trial++ {
		in := genInstance(t, 500+int64(trial), 20, 1, 0.3, []float64{0.05, 0.3, 2}[trial%3], 5)
		want, _ := Value(in, NaiveProfile(in), GreedyOptions{})
		times := make([]float64, in.N())
		got := fx.Solve(in.Tasks, in.Machines, in.Budget, make([]int, in.N()), times)
		if !numeric.Close(got, want, 1e-12) {
			t.Errorf("trial %d: evaluator %.15g, V(p) %.15g", trial, got, want)
		}
		var energy float64
		for _, v := range times {
			energy += in.Machines[0].Power * v
		}
		if energy > in.Budget*(1+1e-12) || math.IsNaN(energy) {
			t.Errorf("trial %d: energy %.15g over budget %.15g", trial, energy, in.Budget)
		}
	}
}
