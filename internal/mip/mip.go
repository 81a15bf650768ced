// Package mip implements a branch-and-bound solver for mixed-integer
// programs over the package lp simplex solver. It is the module's
// substitute for the commercial MIP solver (cvx-MOSEK) the paper uses as
// the exact DSCT-EA baseline ("DSCT-EA-Opt") in its runtime comparison
// (Fig 4). It solves an LP relaxation at every node, the root included,
// and runs one search, with no option selecting another:
//
//   - no cutting planes: every node relaxation carries exactly the model's
//     rows. The root is solved once, like any other node, warm from an
//     imported root basis when Options.Warm supplies one;
//   - reliability branching: pseudo-cost scores from the node's ancestry,
//     after strong-branching probes on candidates with no observation yet
//     in one direction (pseudocost.go);
//   - best-bound node order with plunging: the search dives onto the
//     stronger child of the node it just solved, to a bounded depth,
//     before it returns to the best-bound queue.
//
// Node relaxations may be solved in parallel (Options.Workers): helper
// goroutines solve and branch queued nodes ahead of the search, which
// applies their work in its own order, so the search is the serial one.
//
// The solver maximises. Integer variables are branched by tightening their
// bounds (x <= floor(v) becomes hi = floor(v), x >= ceil(v) becomes
// lo = ceil(v)) on a bounds overlay of the immutable root LP — no rows are
// ever appended for branching, so every node relaxation has the root's
// basis dimension regardless of tree depth. For the DSCT-EA model all
// integer variables are binaries, so branching fixes them to 0 or 1.
//
// Node relaxations are warm-started: each node carries its parent's
// optimal basis, and because a child differs from its parent only by one
// tightened variable bound, that basis stays dual feasible (the nonbasic-
// at-bound state travels with the lp.Basis) and lp.SolveFrom re-optimises
// it with a handful of dual simplex pivots instead of a full two-phase
// solve. If the warm start fails (e.g. the parent basis turns out singular
// under the child's data) the node falls back to a cold Phase-1 solve. Set
// Options.DisableWarmStart to benchmark the cold path.
//
// The search is deterministic at any Options.Workers setting: it takes,
// prunes and counts nodes in the same order as a serial search, and
// candidates with equal objectives (within an internal tolerance) are
// tie-broken by their position in the search tree, so the reported X, the
// node count and every counter do not depend on goroutine scheduling.
package mip

import (
	"fmt"
	"time"

	"repro/internal/lp"
)

// intTol is the integrality tolerance: a value within intTol of an integer
// is considered integral.
const intTol = 1e-6

// maxPlunge bounds how many consecutive children the search dives onto
// before returning to the global best-bound queue.
const maxPlunge = 8

// Problem couples an LP with integrality requirements.
type Problem struct {
	LP       *lp.Problem
	Integers []int // variable indices required to take integer values
}

// Status reports how the search terminated.
type Status int

// Solver statuses.
const (
	// Optimal means the incumbent is proven optimal within Options.Gap.
	Optimal Status = iota
	// Feasible means a limit was hit with an incumbent in hand.
	Feasible
	// NoIncumbent means a limit was hit before any integer solution.
	NoIncumbent
	// Infeasible means the problem has no integer solution.
	Infeasible
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Feasible:
		return "feasible"
	case NoIncumbent:
		return "no-incumbent"
	case Infeasible:
		return "infeasible"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Options tunes the search (see the package comment; no option changes
// its branching rule or node order). The zero value uses defaults:
// serial search, no deadline, gap 1e-6, node limit 1<<20.
type Options struct {
	Deadline time.Time // wall-clock limit (zero: none)
	MaxNodes int       // node budget (0: default 1<<20)
	Gap      float64   // absolute optimality gap for termination (0: 1e-6)

	// RelGap, when positive, terminates the search early once
	// (Bound - incumbent) <= RelGap * max(1, |incumbent|): the
	// incumbent is then reported as Feasible with Result.Gap recording the
	// proven relative gap. Zero keeps the exact Gap-based criterion.
	RelGap float64

	// Workers is the number of goroutines solving node relaxations
	// (<=1: serial). The search runs on the calling goroutine; Workers-1
	// helpers solve and branch queued nodes ahead of it, newest first, and
	// the search applies that work when it reaches the node — or drops it
	// when the node is pruned by then. Each goroutine owns a private
	// lp.Workspace for the lifetime of the search and reuses it across
	// every node it solves, so node relaxations run with zero steady-state
	// solver allocations; the Basis snapshots nodes carry are independent
	// copy-outs, safe to adopt on any goroutine. Without a Deadline the
	// search, and so every Result field but Elapsed, is the same at any
	// Workers setting.
	Workers int

	LP       lp.Options   // per-node LP options (deadline is overridden)
	Rounding RoundingHook // optional primal heuristic, see RoundingHook

	// DisableWarmStart forces every node relaxation to be solved from
	// scratch (a cold two-phase solve) instead of warm-starting the dual
	// simplex from the parent's basis. Intended for benchmarking the
	// warm-start speedup and as a retry when a warm search stops short;
	// leave false in normal use.
	DisableWarmStart bool

	// Warm imports search state exported by a previous Solve over a
	// compatibly-mutated problem (see WarmState for the compatibility
	// contract): the root basis warm-starts the root solve, and the
	// pseudo-cost observations seed branching. Any non-adoptable piece
	// degrades to the cold equivalent rather than failing the solve.
	Warm *WarmState

	// ExportWarm asks Solve to assemble Result.Warm for the next re-solve.
	ExportWarm bool

	// Workspace, when non-nil, is the caller-owned lp.Workspace the search
	// runs on (helpers own private ones), letting consecutive re-solves
	// reuse one workspace's buffers. The caller must not use it
	// concurrently with Solve.
	Workspace *lp.Workspace
}

// RoundingHook is an optional primal heuristic: given the fractional LP
// solution x at a node, it may return a complete candidate over all
// Problem.LP.NumVars() columns. Return ok=false to skip. The solver never
// trusts the candidate: it offers it as an incumbent only if it has the
// right length, is integral on
// Problem.Integers and meets the node's boxes (branching fixes included)
// and every row of the problem within a tolerance of 1e-9 relative; the
// solver computes its objective itself. The solver keeps its own copy of an
// accepted candidate.
//
// With Workers > 1 the hook is called from the helper goroutines too, so
// concurrent calls must not share scratch, and it may be called at nodes
// the search then prunes. x may alias the calling goroutine's solver
// workspace: it is valid for the duration of the call only and must be
// copied if retained.
type RoundingHook func(x []float64) (candidate []float64, ok bool)

// Result is the outcome of a solve.
type Result struct {
	Status    Status
	Objective float64 // incumbent objective (valid unless NoIncumbent/Infeasible)
	X         []float64
	Bound     float64 // best proven upper bound on the optimum (the dual bound)
	Nodes     int     // node relaxations processed, the root included
	Elapsed   time.Duration

	// Every node relaxation, the root included, counts once in one of
	// WarmSolves and ColdSolves; strong-branching probes and rounding-hook
	// candidates (checked against the rows, not solved) count in neither.
	WarmSolves int // relaxations warm-started from a parent basis
	ColdSolves int // relaxations solved from scratch

	// InheritFallbacks counts warm-started relaxations that reused the
	// parent's basic column set but could not adopt its factorisation
	// snapshot — missing, fill-heavy or failing the residual check — and
	// rebuilt the factors from scratch instead. A subset of WarmSolves.
	// The root counts here when it starts from an imported root basis
	// whose rows changed since the export (rows were appended).
	InheritFallbacks int

	// Gap is Bound - Objective when an incumbent exists (0 at Optimal,
	// +Inf otherwise).
	Gap float64

	// Cuts and CutRounds are always zero: the search adds no cutting
	// planes. They remain so that callers reporting them still build.
	Cuts      int
	CutRounds int

	// StrongBranches counts bounded strong-branching probe solves spent by
	// reliability branching (two per probed candidate). Probe solves are
	// not nodes: they are excluded from Nodes, WarmSolves and ColdSolves.
	StrongBranches int

	// Warm is the exported cross-solve state (Options.ExportWarm); nil
	// when export was off.
	Warm *WarmState
}

// fix is one branching decision: variable Var constrained to <= or >= Val.
type fix struct {
	Var   int
	Sense lp.Sense // LE (x <= Val) or GE (x >= Val)
	Val   float64
}

// fixChain is an immutable singly-linked list of branching decisions,
// newest first. A child shares its parent's chain and prepends one
// element, so deriving a node costs O(1) and replaying its decisions
// costs O(depth) — the branching mirror of what lp.Problem.Overlay does
// for constraint rows (and of what the bounds overlay does for boxes).
//
//lint:frozen nodes share chain tails across the whole search tree
type fixChain struct {
	f    fix
	prev *fixChain
}

// pcObs is one pseudo-cost observation: branching variable v in direction
// dir (0 = down, 1 = up) degraded the relaxation objective by delta per
// unit of bound movement. Observations form an immutable chain inherited
// parent→child exactly like fixChain, so a node's pseudo-cost estimates
// depend only on its ancestry, so a helper can branch a node ahead of the
// search with the estimates the search would use.
//
//lint:frozen nodes share chain tails across the whole search tree
type pcObs struct {
	v     int
	dir   int8 // 0 = down branch, 1 = up branch
	delta float64
	prev  *pcObs
}

// node is a subproblem in the search tree.
//
// path is the node's position in the tree as a bit string ("0" = down
// branch, "1" = up branch, "" = root). It is an identity independent of
// the order nodes are taken in, so it can deterministically tie-break
// incumbents with equal objectives. basis is the parent's optimal basis (nil at the
// root and after cold fallbacks) used to warm-start this node's
// relaxation.
type node struct {
	fixes *fixChain // branching decisions, newest first (nil at the root)
	depth int       // branching decisions applied; the chain's length
	bound float64   // parent relaxation objective (upper bound)
	path  string
	basis *lp.Basis

	pc *pcObs // inherited pseudo-cost observations, newest first

	// brVar/brDir/brDist record the branching step that created this node
	// (-1/0/0 at the root): after the node's own solve, the observed
	// objective degradation per unit of brDist becomes a new pseudo-cost
	// observation for brVar in direction brDir.
	brVar  int
	brDir  int8
	brDist float64

	// claimed marks a node the search or a helper has taken (guarded by
	// searcher.mu); exp is its expansion when a helper took it.
	claimed bool
	exp     *expansion
}

// nodeQueue is a heap of open nodes, highest bound first.
type nodeQueue struct {
	items []*node
}

func (q *nodeQueue) Len() int { return len(q.items) }
func (q *nodeQueue) Less(i, j int) bool {
	a, b := q.items[i], q.items[j]
	if a.bound > b.bound {
		return true
	}
	if a.bound < b.bound {
		return false
	}
	// Equal bounds: order by tree path so serial exploration order does
	// not depend on heap insertion order.
	return a.path < b.path
}
func (q *nodeQueue) Swap(i, j int)      { q.items[i], q.items[j] = q.items[j], q.items[i] }
func (q *nodeQueue) Push(x interface{}) { q.items = append(q.items, x.(*node)) }
func (q *nodeQueue) Pop() interface{} {
	old := q.items
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	q.items = old[:n-1]
	return it
}
