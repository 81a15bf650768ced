package core

import (
	"slices"

	"repro/internal/machine"
	"repro/internal/numeric"
	"repro/internal/task"
)

// FixedAssignment is the exact evaluator of DSCT-EA for a fixed
// task-to-machine assignment: once every task has its machine, what is left
// is a laminar family in Joules — each machine's nested deadline prefixes
// Σ_{i<=j, i on r} P_r·t_i <= P_r·d_j, all inside the one budget
// Σ P_r·t_j <= B — and the accuracy-per-Joule greedy solves it exactly
// (DESIGN.md §4). Branch-and-bound uses it as its primal heuristic and to
// rebuild the final schedule from the incumbent's assignment.
//
// The zero value is ready to use. The evaluator keeps its scratch between
// calls, so repeated evaluations do not allocate; it is not safe for
// concurrent use.
type FixedAssignment struct {
	segs  []fixedSeg // by task, then position
	order []segKey   // segs by non-increasing accuracy per Joule
	mach  []chain    // per machine: the deadline intervals of its tasks
	slot  []int      // task -> its interval on its machine's chain
}

// fixedSeg is one accuracy segment of a task, priced on the task's machine.
type fixedSeg struct {
	task  int
	mach  int     // the task's machine
	width float64 // seconds on the machine: width/s_r
}

// segKey is a segment's sort key: its accuracy per Joule, slope·E_r, and
// its index in segs, which orders ties by task, then position.
type segKey struct {
	key float64
	seg int
}

// chain is one machine's latest-interval kernel: rem[k] is the free time
// between its (k-1)-th and k-th task's deadlines, parent the union-find
// over those intervals shifted by one (index 0 stands for "none").
type chain struct {
	rem    []float64
	parent []int
	last   float64 // deadline of the machine's latest task so far
}

// Solve writes into t the processing time of every task on its machine
// assign[j] (an index into fleet) that maximises Σ_j a_j(s_r·t_j) subject
// to every machine's deadline prefixes and the energy budget, and returns
// that total accuracy. Tasks must be in deadline order; t must have one
// entry per task.
//
// Algorithm: take the accuracy segments in non-increasing accuracy per
// Joule (slope·E_r; ties by task, then position, as flattenSegments
// orders them) and grant each the minimum of its width, the room left on
// its machine and the budget left, skipping a room of at most numeric.Eps
// as Algorithm 1 does. The room comes from one latest-interval kernel per
// machine (see Allocator.allocate), the budget from a counter.
func (fx *FixedAssignment) Solve(tasks []task.Task, fleet machine.Fleet, budget float64, assign []int, t []float64) float64 {
	if len(assign) != len(tasks) || len(t) != len(tasks) {
		panic("core: assignment and times must have one entry per task")
	}
	fx.reset(len(tasks), len(fleet))
	fx.load(tasks, fleet, assign)
	fx.grant(fleet, budget, t)
	var acc numeric.KahanSum
	for j, tk := range tasks {
		acc.Add(tk.Acc.Eval(fleet[assign[j]].Speed * t[j]))
	}
	return acc.Value()
}

// reset sizes the scratch for n tasks on m machines. Every chain gets room
// for all n tasks, so a reused evaluator never grows again for the same n.
func (fx *FixedAssignment) reset(n, m int) {
	if len(fx.mach) < m {
		fx.mach = append(fx.mach, make([]chain, m-len(fx.mach))...)
	}
	fx.mach = fx.mach[:m]
	for r := range fx.mach {
		c := &fx.mach[r]
		if cap(c.rem) < n {
			c.rem = make([]float64, 0, n)
			c.parent = make([]int, 0, n+1)
		}
		c.rem = c.rem[:0]
		c.parent = append(c.parent[:0], 0)
		c.last = 0
	}
	fx.slot = slices.Grow(fx.slot[:0], n)[:n]
	fx.segs, fx.order = fx.segs[:0], fx.order[:0]
}

// load builds the machines' interval chains and the priced, sorted
// segment list for the assignment.
func (fx *FixedAssignment) load(tasks []task.Task, fleet machine.Fleet, assign []int) {
	for j, tk := range tasks {
		r := assign[j]
		c := &fx.mach[r]
		k := len(c.rem)
		fx.slot[j] = k
		c.rem = append(c.rem, tk.Deadline-c.last)
		c.last = tk.Deadline
		c.parent = append(c.parent, k+1)
		if !(c.rem[k] > 0) { // a deadline shared with the machine's previous task adds no interval
			c.parent[k+1] = k
		}
		speed, eff := fleet[r].Speed, fleet[r].Efficiency()
		for p := 0; p < tk.Acc.NumSegments(); p++ {
			s := tk.Acc.Segment(p)
			if s.Width() <= 0 {
				continue
			}
			fx.order = append(fx.order, segKey{key: s.Slope * eff, seg: len(fx.segs)})
			fx.segs = append(fx.segs, fixedSeg{task: j, mach: r, width: s.Width() / speed})
		}
	}
	slices.SortFunc(fx.order, bySegKey)
}

// bySegKey orders segments by non-increasing accuracy per Joule, then by
// index: a strict total order, so the sorted order does not depend on the
// sort's stability. Keys are finite, so plain comparisons suffice.
func bySegKey(a, b segKey) int {
	switch {
	case a.key > b.key:
		return -1
	case a.key < b.key:
		return 1
	}
	return a.seg - b.seg
}

// grant runs the greedy over the loaded segments into t: the kernel of
// every evaluation, pinned to zero allocations with load by
// TestAllocsFixedAssignment.
//
//lint:hotpath runs once per evaluation, once per heuristic candidate and extracted schedule
func (fx *FixedAssignment) grant(fleet machine.Fleet, budget float64, t []float64) {
	clear(t)
	left := budget
	for _, o := range fx.order {
		seg := &fx.segs[o.seg]
		j, c, power := seg.task, &fx.mach[seg.mach], fleet[seg.mach].Power
		affordable := left / power
		if affordable <= numeric.Eps {
			continue
		}
		want := min(seg.width, affordable)
		room := 0.0
		for k := latest(c.parent, fx.slot[j]); k >= 0; k = latest(c.parent, k-1) {
			room += c.rem[k]
			if room >= want && room > numeric.Eps {
				break
			}
		}
		if room <= numeric.Eps {
			continue
		}
		g := min(want, room)
		t[j] += g
		left -= g * power
		for k := latest(c.parent, fx.slot[j]); k >= 0; k = latest(c.parent, k) {
			if c.rem[k] > g {
				c.rem[k] -= g
				break
			}
			g -= c.rem[k]
			c.rem[k] = 0
			c.parent[k+1] = k
		}
	}
}
