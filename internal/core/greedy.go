// Package core implements the paper's exact algorithm for the fractional
// relaxation DSCT-EA-FR (Algorithms 1–4):
//
//   - the single-machine greedy allocator (Algorithm 1), generalised to run
//     over aggregate prefix capacities;
//   - energy profiles and the naive profile of ComputeNaiveSolution
//     (Algorithm 2);
//   - profile refinement guided by accuracy-per-Joule exchanges
//     (Algorithm 3 / RefineProfile);
//   - the end-to-end solver DSCT-EA-FR-OPT (Algorithm 4), including the
//     reconstruction of per-machine processing times t_jr from the
//     aggregate solution.
//
// The key structural fact (see DESIGN.md §4): with fractional splitting a
// work vector f is feasible for an energy profile p iff for every task j
// (deadline order) Σ_{i<=j} f_i <= C(d_j, p) = Σ_r s_r·min(d_j, p_r). The
// prefix constraints form a chain, so for fixed p the feasible work vectors
// form a polymatroid (intersected with the boxes f_j <= f_j^max) and
// allocating PWL segments in non-increasing slope order is optimal — this
// is exactly the paper's Algorithm 1. The value V(p) of that inner optimum
// is concave in p, which RefineProfile exploits.
package core

import (
	"math"
	"slices"

	"repro/internal/numeric"
	"repro/internal/task"
)

// segRef is one linear piece of one task's accuracy function, flattened for
// the greedy allocator.
type segRef struct {
	task  int     // task index (deadline order)
	pos   int     // segment position within the task's accuracy function
	slope float64 // accuracy per GFLOP
	width float64 // GFLOPs in this segment
}

// flattenSegments lists every accuracy segment of every task, sorted by
// non-increasing slope (ties broken by task then position, so a task's
// earlier segments always precede its later ones — concavity makes their
// slopes non-increasing). The key is a strict total order, so the sorted
// order does not depend on the sort's stability.
func flattenSegments(tasks []task.Task) []segRef {
	total := 0
	for _, tk := range tasks {
		total += tk.Acc.NumSegments()
	}
	segs := make([]segRef, 0, total)
	for j, tk := range tasks {
		for k := 0; k < tk.Acc.NumSegments(); k++ {
			s := tk.Acc.Segment(k)
			if s.Width() <= 0 {
				continue
			}
			segs = append(segs, segRef{task: j, pos: k, slope: s.Slope, width: s.Width()})
		}
	}
	slices.SortFunc(segs, segOrder)
	return segs
}

// segOrder is flattenSegments' order: non-increasing slope, then task,
// then position. It compares the fields directly, because the sort is one
// of the larger costs of a SolveFR, and orders a NaN slope last as
// cmp.Compare(b.slope, a.slope) would.
func segOrder(a, b segRef) int {
	switch {
	case a.slope > b.slope:
		return -1
	case a.slope < b.slope:
		return 1
	case math.IsNaN(a.slope) != math.IsNaN(b.slope):
		if math.IsNaN(a.slope) {
			return 1
		}
		return -1
	case a.task != b.task:
		return a.task - b.task
	}
	return a.pos - b.pos
}

// GreedyOptions tunes the allocator.
type GreedyOptions struct {
	// UseScan selects the paper's O(n²) slack scan — a suffix minimum
	// recomputed for every segment — instead of the latest-interval
	// kernel (ablation BenchmarkAblationSegtreeVsScan).
	UseScan bool
}

// Allocator is a reusable Algorithm 1 runner: it caches the slope-sorted
// segment list of a task set so that repeated allocations against
// different capacity vectors (as in RefineProfile's line searches) skip
// the O(S log S) sort, and it owns the kernel's scratch and the
// line-search samples, so neither evaluating V(p) through it nor a line
// search allocates. An Allocator is not safe for concurrent use.
type Allocator struct {
	n      int
	segs   []segRef
	opts   GreedyOptions
	probes int // V(p) evaluations so far, reported as FRSolution.Probes

	caps   []float64 // V(p)'s aggregate capacities
	rem    []float64 // free capacity per deadline interval (kernel) or prefix slack (scan)
	parent []int     // union-find over intervals shifted by one; index 0 stands for "none"
	work   []float64 // the work vector of the last allocation

	// The dual of the last greedyDual (see there).
	base   float64   // Σ_j a_j(0)
	sigma  []float64 // per task, the slope of its first short segment; −1 while none is
	prefix []float64 // Σ_{i≤j} f_i of the allocation (shortSlopes' per-task sums until then)
	lambda []float64 // λ_k ≥ 0 on each prefix constraint k
	price  []float64 // Λ_t = Σ_{k≥t} λ_k, n+1 entries, set by dualValue

	samples []sample // RefineProfile's line-search samples, reused from search to search
}

// NewAllocator prepares an allocator for the tasks (deadline order).
func NewAllocator(tasks []task.Task, opts GreedyOptions) *Allocator {
	n := len(tasks)
	var base numeric.KahanSum
	for _, tk := range tasks {
		base.Add(tk.Acc.Eval(0))
	}
	return &Allocator{
		n:      n,
		segs:   flattenSegments(tasks),
		opts:   opts,
		caps:   make([]float64, n),
		rem:    make([]float64, n),
		parent: make([]int, n+1),
		work:   make([]float64, n),
		base:   base.Value(),
		sigma:  make([]float64, n),
		prefix: make([]float64, n),
		lambda: make([]float64, n),
		price:  make([]float64, n+1),
	}
}

// Allocate is Algorithm 1 over aggregate capacities: given the prefix
// capacities caps[j] (GFLOPs available to tasks 1..j together), it
// returns the optimal work vector f, which the caller owns.
//
// Algorithm: consider segments in non-increasing slope order; grant each
// segment the largest amount that keeps every prefix constraint i >= j
// satisfied (the minimum suffix slack). Only the suffix minimum of caps
// binds, and a negative capacity counts as zero.
func (a *Allocator) Allocate(caps []float64) []float64 {
	if len(caps) != a.n {
		panic("core: caps length must match task count")
	}
	a.allocate(caps)
	return slices.Clone(a.work)
}

// allocate runs Algorithm 1 on caps into a.work.
//
// The default kernel replaces the caps by their suffix minimum, clamped
// at zero, and splits them into per-deadline intervals of capacity
// rem[k] = C_k − C_{k−1}. A segment of task j draws from the latest
// non-empty interval k <= j first; a union-find skips exhausted
// intervals. Drawing latest-first keeps Σ_{k<=j} rem[k] equal to the
// minimum suffix slack of every task j (DESIGN.md §4), so each grant is
// min(width, room) as with an explicit slack scan. Every interval empties
// at most once, and a granted segment walks past only the intervals it
// empties; a skipped segment (room at most numeric.Eps) also visits the
// crumbs of capacity left at or before its task. On the Table 1 and
// Fig 6b instances an allocation averages one to two finds per segment.
//
//lint:hotpath runs once per V(p) evaluation in RefineProfile's line searches; pinned to zero allocations
func (a *Allocator) allocate(caps []float64) {
	clear(a.work)
	if a.opts.UseScan {
		a.scan(caps)
		return
	}
	rem, parent := a.rem, a.parent
	low := math.Inf(1)
	for i := a.n - 1; i >= 0; i-- {
		if caps[i] < low {
			low = caps[i]
		}
		rem[i] = low
	}
	prev := 0.0
	for i, c := range rem {
		c = max(c, 0)
		rem[i] = c - prev
		prev = c
		parent[i+1] = i + 1
		if !(rem[i] > 0) { // also +Inf − +Inf: an unbounded cap adds nothing past the first
			parent[i+1] = i
		}
	}
	for _, seg := range a.segs {
		room := 0.0
		for k := latest(parent, seg.task); k >= 0; k = latest(parent, k-1) {
			room += rem[k]
			if room >= seg.width && room > numeric.Eps {
				break
			}
		}
		if room <= numeric.Eps {
			continue
		}
		grant := min(seg.width, room)
		a.work[seg.task] += grant
		for k := latest(parent, seg.task); k >= 0; k = latest(parent, k) {
			if rem[k] > grant {
				rem[k] -= grant
				break
			}
			grant -= rem[k]
			rem[k] = 0
			parent[k+1] = k
		}
	}
}

// latest returns the latest interval k <= j with free capacity, or -1,
// halving the path it walks. parent is a union-find over intervals
// shifted by one, index 0 standing for "none": the layout of
// Allocator.allocate's kernel and of each FixedAssignment machine chain.
//
//lint:hotpath called per interval visited by allocate and FixedAssignment.grant
func latest(p []int, j int) int {
	x := j + 1
	for p[x] != x {
		p[x] = p[p[x]]
		x = p[x]
	}
	return x - 1
}

// scan is the paper's O(n²) Algorithm 1: prefix slacks kept explicitly,
// the suffix minimum recomputed for every segment.
func (a *Allocator) scan(caps []float64) {
	slack := a.rem
	for i, c := range caps {
		slack[i] = max(c, 0)
	}
	for _, seg := range a.segs {
		room := math.Inf(1)
		for _, s := range slack[seg.task:] {
			if s < room {
				room = s
			}
		}
		if room <= numeric.Eps {
			continue
		}
		grant := min(seg.width, room)
		a.work[seg.task] += grant
		for i := seg.task; i < a.n; i++ {
			slack[i] -= grant
		}
	}
}

// greedyDual runs Algorithm 1 on caps and sets a.lambda to the dual
// solution its allocation implies, so that D_λ(caps) (dualValue) equals
// V(caps) up to rounding (DESIGN.md §4, "Closing a line search by
// duality").
//
// For fixed caps, V is the optimum of the LP max Σ_j a_j(f_j) subject to
// Σ_{i≤j} f_i ≤ C_j and 0 ≤ f_j ≤ f_j^max. Task t's sigma is the slope of
// its first segment, in processing order, that the allocation granted
// less than its width (skipped or partly granted), or −1 when none was.
// Processing order, not position, because a task's slopes may rise by
// 1e-9 relative from one segment to the next. Prefix j is tight when the
// allocation fills C̃_j = max(0, min_{k≥j} C_k) up to 1e-9·max(1, C̃_j).
// Tight prefixes end blocks of tasks, on which the price
// Λ_t = Σ_{k≥t} λ_k is constant. From the last block back, a block's
// price is the larger of its tasks' sigmas and the next block's price;
// tasks past the last tight prefix, which the allocation filled, have
// price 0. A block ending at j puts its price step on the constraint k ≥ j
// whose C_k is C̃_j (the earliest such k), so λ ≥ 0 by construction.
// Tightness is read from the prefix sums, not from a task finding no
// room: later tasks also draw from early intervals, so that shortcut
// builds a dual that is not optimal.
//
//lint:hotpath once per accepted refinement move; pinned to zero allocations
func (a *Allocator) greedyDual(caps []float64) {
	a.allocate(caps)
	a.shortSlopes()
	prefix, lambda := a.prefix, a.lambda
	sum := 0.0
	for j, f := range a.work {
		sum += f
		prefix[j] = sum
	}
	clear(lambda)
	low, arg := math.Inf(1), -1 // suffix minimum of caps and its earliest index
	end := -1                   // the constraint the open block's price step sits on; −1 before the first tight prefix
	next, top := 0.0, 0.0       // the price after the open block; the largest sigma in it
	for j := a.n - 1; j >= 0; j-- {
		if caps[j] <= low {
			low, arg = caps[j], j
		}
		if c := max(low, 0); prefix[j] >= c-1e-9*max(1, c) {
			if end >= 0 {
				price := max(top, next)
				lambda[end] += price - next
				next = price
			}
			end, top = arg, 0
		}
		if end >= 0 {
			top = max(top, a.sigma[j])
		}
	}
	if end >= 0 {
		lambda[end] += max(top, next) - next
	}
}

// shortSlopes sets a.sigma from the allocation in a.work by replaying its
// grants: the kernels grant each segment min(width, room) in processing
// order and add it to its task's work, and a task's segments after its
// first short one get no room. So its full segments' widths, summed in
// that order, reproduce a.work bit for bit until the first segment that
// does not fit, which is the short one. (It is recorded here, not in the
// kernels, because a store on their skip path slowed every V(p) probe.)
//
//lint:hotpath once per accepted refinement move; pinned to zero allocations
func (a *Allocator) shortSlopes() {
	sigma, acc := a.sigma, a.prefix
	for j := range sigma {
		sigma[j] = -1
	}
	clear(acc)
	for _, seg := range a.segs {
		t := seg.task
		if sigma[t] >= 0 {
			continue
		}
		if full := acc[t] + seg.width; full <= a.work[t] {
			acc[t] = full
		} else {
			sigma[t] = seg.slope
		}
	}
}

// dualValue returns D_λ(caps) = Σ_j a_j(0) + Σ_k λ_k·C_k +
// Σ_seg width·max(0, slope − Λ_task) for the multipliers in a.lambda,
// which weak duality makes an upper bound on V(caps) for every λ ≥ 0. It
// leaves the prices Λ_t in a.price, with a.price[n] = 0.
//
//lint:hotpath once per accepted refinement move; pinned to zero allocations
func (a *Allocator) dualValue(caps []float64) float64 {
	var d numeric.KahanSum
	d.Add(a.base)
	price := a.price
	price[a.n] = 0
	for k := a.n - 1; k >= 0; k-- {
		price[k] = price[k+1] + a.lambda[k]
		d.Add(a.lambda[k] * caps[k])
	}
	for _, seg := range a.segs {
		if excess := seg.slope - price[seg.task]; excess > 0 {
			d.Add(seg.width * excess)
		}
	}
	return d.Value()
}

// GreedyAllocate runs Algorithm 1 once (see Allocator.Allocate).
func GreedyAllocate(tasks []task.Task, caps []float64, opts GreedyOptions) []float64 {
	return NewAllocator(tasks, opts).Allocate(caps)
}

// TotalAccuracy evaluates Σ_j a_j(f_j) for a work vector.
func TotalAccuracy(tasks []task.Task, f []float64) float64 {
	var acc numeric.KahanSum
	for j, tk := range tasks {
		acc.Add(tk.Acc.Eval(f[j]))
	}
	return acc.Value()
}
