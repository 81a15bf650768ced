// Package mip implements a branch-and-cut solver for mixed-integer
// programs over the package lp simplex solver. It is the module's
// substitute for the commercial MIP solver (cvx-MOSEK) the paper uses as
// the exact DSCT-EA baseline ("DSCT-EA-Opt") in its runtime comparison
// (Fig 4). It solves an LP relaxation at every node and runs one search,
// with no option selecting another:
//
//   - root cuts: rounds of cover, GUB-cover and VUB separation from the
//     model structure, each re-optimised with the dual simplex; slack cuts
//     are dropped and the surviving pool joins every node relaxation
//     (cuts.go);
//   - reliability branching: pseudo-cost scores from the node's ancestry,
//     after strong-branching probes on candidates with no observation yet
//     in one direction (pseudocost.go);
//   - best-bound node order with plunging: a worker dives onto the
//     stronger child of the node it just solved, to a bounded depth,
//     before it returns to the best-bound queue.
//
// Nodes may be processed in parallel (Options.Workers).
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
// Incumbent selection is deterministic at any Options.Workers setting:
// candidates with equal objectives (within an internal tolerance) are
// tie-broken by their position in the search tree, so the reported X does
// not depend on worker scheduling.
package mip

import (
	"fmt"
	"time"

	"repro/internal/lp"
)

// intTol is the integrality tolerance: a value within intTol of an integer
// is considered integral.
const intTol = 1e-6

// Problem couples an LP with integrality requirements.
type Problem struct {
	LP       *lp.Problem
	Integers []int // variable indices required to take integer values

	// Structure optionally describes model rows the cut separator can
	// exploit (knapsack/budget rows, GUB assignment rows, variable upper
	// bounds). Model builders that know their row layout — internal/model
	// does — fill it in; when nil, or when a root presolve remaps the rows
	// out from under it, the separator detects the same structure from the
	// LP itself.
	Structure *Structure
}

// Structure is builder-provided row metadata for the cut separator. All
// indices refer to the rows and variables of Problem.LP as built.
type Structure struct {
	// BudgetRows are <=-rows with nonnegative coefficients over mixed or
	// continuous variables, e.g. the DSCT-EA energy row Σ P_r·t_jr <= B:
	// cover-cut candidates after continuous terms are shifted to the
	// right-hand side by their bounds.
	BudgetRows []int
	// GUBRows are generalised-upper-bound assignment rows: Σ x in G {<=,=} 1
	// over binaries, e.g. the one-machine-per-task rows Σ_r x_jr = 1.
	GUBRows []int
	// VUBs are variable-upper-bound links t <= U·x with x binary, e.g. the
	// DSCT-EA deadline links t_jr <= d_j·x_jr. The separator strengthens U
	// down to t's own upper bound when that is tighter.
	VUBs []VUB
}

// VUB is one variable-upper-bound link Cont <= U·Bin.
type VUB struct {
	Cont int     // continuous variable
	Bin  int     // binary variable
	U    float64 // link coefficient as built
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
// its cuts, branching rule or node order). The zero value uses defaults:
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

	// Workers is the number of parallel node processors (<=1: serial).
	// Each worker goroutine owns a private lp.Workspace for the lifetime
	// of the search and reuses it across every node it dequeues, so node
	// relaxations run with zero steady-state solver allocations. A
	// workspace is never shared across goroutines — workers communicate
	// only through the (mutex-guarded) node queue and incumbent, and the
	// Basis snapshots nodes carry are independent copy-outs, safe to adopt
	// by whichever worker dequeues the child. Results are bit-identical at
	// any Workers setting (see the package comment on deterministic
	// incumbent selection).
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
	// contract): the cut pool joins every node relaxation, the root basis
	// warm-starts the root solve, and the pseudo-cost observations seed
	// branching. Ignored under root presolve (the exported state lives in
	// original row/column space); any non-adoptable piece degrades to the
	// cold equivalent rather than failing the solve.
	Warm *WarmState

	// ExportWarm asks Solve to assemble Result.Warm for the next re-solve.
	// Ignored under root presolve.
	ExportWarm bool

	// Workspace, when non-nil and Workers <= 1, is the caller-owned
	// lp.Workspace the root cut loop and the single search worker run on,
	// letting consecutive re-solves reuse one workspace's buffers. The
	// caller must not use it concurrently with Solve. Ignored when
	// Workers > 1 (each worker owns a private workspace).
	Workspace *lp.Workspace
}

// RoundingHook is an optional primal heuristic: given the fractional LP
// solution x at a node, it may return a complete candidate over all
// Problem.LP.NumVars() columns, in the caller's (original) space. Return
// ok=false to skip. The solver never trusts the candidate: it offers it as
// an incumbent only if it has the right length, is integral on
// Problem.Integers and meets the node's boxes (branching fixes included)
// and every row of the node relaxation (base rows and the kept cut pool)
// within a tolerance of 1e-9 relative; the solver computes its objective
// itself. The solver keeps its own copy of an accepted candidate.
//
// With Workers > 1 the hook is called from every worker, so concurrent
// calls must not share scratch. x may alias the calling worker's solver
// workspace: it is valid for the duration of the call only and must be
// copied if retained.
type RoundingHook func(x []float64) (candidate []float64, ok bool)

// Result is the outcome of a solve.
type Result struct {
	Status    Status
	Objective float64 // incumbent objective (valid unless NoIncumbent/Infeasible)
	X         []float64
	Bound     float64 // best proven upper bound on the optimum (the dual bound)
	Nodes     int     // LP relaxations solved
	Elapsed   time.Duration

	// Every node relaxation solve counts in one of WarmSolves and
	// ColdSolves. Rounding-hook candidates are checked against the rows,
	// not solved, and count in neither.
	WarmSolves int // relaxations warm-started from a parent basis
	ColdSolves int // relaxations solved from scratch

	// InheritFallbacks counts warm-started relaxations that reused the
	// parent's basic column set but could not adopt its factorisation
	// snapshot — missing, fill-heavy or failing the residual check — and
	// rebuilt the factors from scratch instead. A subset of WarmSolves.
	InheritFallbacks int

	// Gap is Bound - Objective when an incumbent exists (0 at Optimal,
	// +Inf otherwise).
	Gap float64

	// Cuts is the number of cut rows in the root pool after slack removal
	// (the rows every node relaxation carries); CutRounds is how many
	// separate→re-optimise rounds the root loop ran.
	Cuts      int
	CutRounds int

	// StrongBranches counts bounded strong-branching probe solves spent by
	// reliability branching (two per probed candidate). Probe solves are
	// not nodes: they are excluded from Nodes, WarmSolves and ColdSolves.
	StrongBranches int

	// Warm is the exported cross-solve state (Options.ExportWarm); nil
	// when export was off or the solve ran under root presolve.
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
// depend only on its ancestry — never on what other workers explored —
// which keeps the tree shape and hence the incumbents bit-identical at
// any Workers setting (a shared mutable pseudo-cost store would not).
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
// branch, "1" = up branch, "" = root). It is a scheduling-independent
// identity: unlike a dequeue counter it does not depend on which worker
// popped the node first, so it can deterministically tie-break incumbents
// with equal objectives. basis is the parent's optimal basis (nil at the
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
