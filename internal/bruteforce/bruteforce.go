// Package bruteforce is the brute-force oracle the exact DSCT-EA paths
// are tested against: internal/model's branch-and-bound and
// internal/incremental's engine flushes. It shares no code with the
// solvers under test: it imports neither lp, mip nor core.
// ForEachAssignment enumerates every task-to-machine assignment, and
// ScanAssignment scores one with its own copy of the accuracy-per-Joule
// greedy, whose room on a machine is a plain O(n) scan of the machine's
// deadline prefixes instead of core's latest-interval kernel.
package bruteforce

import (
	"math"
	"sort"

	"repro/internal/machine"
	"repro/internal/numeric"
	"repro/internal/task"
)

// ForEachAssignment calls visit with every assignment of n tasks to m
// machines. visit must not retain the slice.
func ForEachAssignment(n, m int, visit func(assign []int)) {
	assign := make([]int, n)
	var rec func(j int)
	rec = func(j int) {
		if j == n {
			visit(assign)
			return
		}
		for r := 0; r < m; r++ {
			assign[j] = r
			rec(j + 1)
		}
	}
	rec(0)
}

// scanSeg is one accuracy segment of a task, priced on its machine.
type scanSeg struct {
	task, pos int
	perJoule  float64 // accuracy per Joule: slope·s_r/P_r
	seconds   float64 // the segment's width in seconds on the machine
}

// ScanAssignment returns the best total accuracy Σ_j a_j(s_r·t_j) of the
// assignment (task j on machine assign[j]) subject to the MIP's rows:
// every machine's deadline prefixes Σ_{i<=k, i on r} t_i <= d_k over task
// indices, and the energy budget Σ_j P_r·t_j <= budget. tasks must be in
// deadline order, as the MIP's staircase rows are.
//
// With the machines fixed, the rows form a laminar family in Joules, so
// granting segments in non-increasing accuracy per Joule (ties by task,
// then position) is exact. Each segment gets the minimum of its width, the
// time the budget still buys and its room: the least slack
// d_k - Σ_{i<=k, i on r} t_i over the tasks k >= j on its machine. A room
// or a budget of at most numeric.Eps seconds is skipped, as Algorithm 1
// skips it.
func ScanAssignment(tasks []task.Task, fleet machine.Fleet, budget float64, assign []int) float64 {
	var segs []scanSeg
	for j, tk := range tasks {
		mc := fleet[assign[j]]
		for p := 0; p < tk.Acc.NumSegments(); p++ {
			s := tk.Acc.Segment(p)
			if s.Width() > 0 {
				segs = append(segs, scanSeg{task: j, pos: p, perJoule: s.Slope * mc.Speed / mc.Power, seconds: s.Width() / mc.Speed})
			}
		}
	}
	sort.Slice(segs, func(a, b int) bool {
		sa, sb := segs[a], segs[b]
		//lint:ignore floatcmp comparator tie-break on exact equality keeps the order strict
		if sa.perJoule != sb.perJoule {
			return sa.perJoule > sb.perJoule
		}
		if sa.task != sb.task {
			return sa.task < sb.task
		}
		return sa.pos < sb.pos
	})

	t := make([]float64, len(tasks))
	left := budget
	for _, sg := range segs {
		j, r := sg.task, assign[sg.task]
		affordable := left / fleet[r].Power
		if affordable <= numeric.Eps {
			continue
		}
		room := math.Inf(1)
		used := 0.0
		for k, tk := range tasks {
			if assign[k] != r {
				continue
			}
			used += t[k]
			if k >= j {
				room = math.Min(room, tk.Deadline-used)
			}
		}
		if room <= numeric.Eps {
			continue
		}
		g := math.Min(sg.seconds, math.Min(affordable, room))
		t[j] += g
		left -= g * fleet[r].Power
	}

	var acc float64
	for j, tk := range tasks {
		acc += tk.Acc.Eval(fleet[assign[j]].Speed * t[j])
	}
	return acc
}
