package mip

import (
	"container/heap"
	"errors"
	"math"
	"time"

	"repro/internal/lp"
)

// ErrUnbounded is returned when the root relaxation is unbounded.
var ErrUnbounded = errors.New("mip: unbounded relaxation")

// Solve runs branch-and-bound on p.
func Solve(p *Problem, opts Options) (*Result, error) {
	start := time.Now() //lint:ignore wallclock sanctioned once-per-solve stamp for Result wall-time reporting
	if opts.MaxNodes == 0 {
		opts.MaxNodes = 1 << 20
	}

	s := &searcher{
		prob:      p,
		opts:      opts,
		incumbent: math.Inf(-1),
	}
	// Cross-solve warm state (incremental re-solves): graft the imported
	// root basis and pseudo-cost chain onto the root node.
	if opts.Warm != nil {
		s.importWarm(opts.Warm)
	}
	heap.Push(&s.queue, &node{bound: math.Inf(1), brVar: -1, basis: s.rootFrom, pc: s.rootPC})

	// Every node solves on one lp.Workspace and one branching scratch,
	// reused across the whole search, so node solves hit zero steady-state
	// solver allocations.
	ws := opts.Workspace
	if ws == nil {
		ws = lp.NewWorkspace()
	}
	if err := s.run(ws, newBranchScratch(p.LP.NumVars())); err != nil {
		return nil, err
	}
	res := &Result{
		Nodes:            s.nodes,
		Elapsed:          time.Since(start),
		WarmSolves:       s.warmSolves,
		ColdSolves:       s.coldSolves,
		InheritFallbacks: s.inheritFallbacks,
		StrongBranches:   s.strongBranches,
	}
	hasIncumbent := !math.IsInf(s.incumbent, -1)
	if hasIncumbent {
		res.Objective = s.incumbent
		res.X = s.incumbentX
	}
	switch {
	case !s.stopped && hasIncumbent:
		res.Status = Optimal
		res.Bound = s.incumbent
	case !s.stopped:
		res.Status = Infeasible
		res.Bound = math.Inf(-1)
	case hasIncumbent:
		res.Status = Feasible
		res.Bound = s.openBound()
	default:
		res.Status = NoIncumbent
		res.Bound = s.openBound()
	}
	if hasIncumbent {
		res.Gap = math.Max(0, res.Bound-res.Objective)
	} else {
		res.Gap = math.Inf(1)
	}
	if opts.ExportWarm {
		res.Warm = s.exportWarm()
	}
	return res, nil
}

type searcher struct {
	prob *Problem
	opts Options

	// Cross-solve warm state (see warm.go): rootFrom/rootPC seed the root
	// node's basis and pseudo-cost chain.
	rootFrom *lp.Basis
	rootPC   *pcObs

	queue            nodeQueue
	incumbent        float64
	incumbentX       []float64
	incumbentPath    string
	incumbentPC      *pcObs    // pseudo-cost chain at the incumbent's node (export)
	rootBasis        *lp.Basis // root relaxation basis captured for export
	nodes            int
	warmSolves       int
	coldSolves       int
	inheritFallbacks int
	strongBranches   int
	stopped          bool
}

// openBound returns the global dual bound: the best bound over the open
// queue and the incumbent.
func (s *searcher) openBound() float64 {
	b := s.incumbent
	for _, nd := range s.queue.items {
		if nd.bound > b {
			b = nd.bound
		}
	}
	return b
}

// admit runs the node-budget and deadline gates for a node about to be
// processed and, when admitted, counts it.
// It returns false — with nd pushed back on the queue for bound reporting
// and the search stopped — when a limit struck.
func (s *searcher) admit(nd *node) bool {
	if s.nodes >= s.opts.MaxNodes {
		heap.Push(&s.queue, nd)
		s.stopped = true
		return false
	}
	//lint:ignore wallclock sanctioned deadline probe, once per admitted branch-and-bound node
	if !s.opts.Deadline.IsZero() && time.Now().After(s.opts.Deadline) {
		heap.Push(&s.queue, nd)
		s.stopped = true
		return false
	}
	s.nodes++
	return true
}

// run is the search loop: it takes nodes in best-bound order, processes
// them and plunges. ws is its solver workspace and scr its branching
// scratch. It returns the first solve error, which ends the search.
func (s *searcher) run(ws *lp.Workspace, scr *branchScratch) error {
	for !s.stopped && s.queue.Len() > 0 {
		nd := heap.Pop(&s.queue).(*node)
		if nd.bound <= s.incumbent+gapTol {
			continue // pruned by bound
		}
		if !s.admit(nd) {
			return nil
		}

		// Process nd, then plunge: continue directly with one of its
		// children instead of going back through the global queue. The
		// search dives down one path (bounded depth), keeping the parent's
		// basis hot in its workspace.
		for depth := 0; nd != nil; depth++ {
			children, err := s.process(nd, ws, scr)
			if err != nil {
				return err
			}
			var carry *node
			if !s.stopped && depth < maxPlunge {
				// Dive onto the child with the stronger bound (tie: the
				// down branch, matching the queue's path tie-break).
				for _, c := range children {
					if c.bound <= s.incumbent+gapTol {
						continue
					}
					if carry == nil || c.bound > carry.bound ||
						//lint:ignore floatcmp deterministic tie-break mirroring the queue comparator's exact ordering
						(c.bound == carry.bound && c.path < carry.path) {
						carry = c
					}
				}
			}
			for _, c := range children {
				if c != carry {
					heap.Push(&s.queue, c)
				}
			}
			if carry != nil && !s.admit(carry) {
				carry = nil
			}
			nd = carry
		}
	}
	return nil
}

// process solves one node's relaxation and, unless the solve prunes the
// node or proves it integral, branches on it and returns its children.
func (s *searcher) process(nd *node, ws *lp.Workspace, scr *branchScratch) ([]*node, error) {
	sol, basis, err := s.solveNodeLP(nd, ws)
	if err != nil {
		return nil, err
	}
	switch sol.Status {
	case lp.Infeasible:
		return nil, nil
	case lp.Unbounded:
		if nd.depth == 0 {
			return nil, ErrUnbounded
		}
		return nil, nil // cannot happen below a bounded root; drop defensively
	case lp.TimeLimit, lp.IterLimit:
		s.stopped = true
		return nil, nil
	}

	if nd.depth == 0 && s.opts.ExportWarm && basis != nil {
		// Root relaxation basis for WarmState export. Captured before the
		// pruning gate so even a one-node search exports it; an independent
		// copy-out, safe to hold past later solves.
		s.rootBasis = basis
	}
	if sol.Objective <= s.incumbent+gapTol {
		return nil, nil
	}

	// The relaxation degraded by (parent bound - node objective) over a
	// bound movement of brDist. The chain extension is node-local and
	// immutable, so estimates depend only on ancestry (see pcObs).
	if nd.brVar >= 0 && nd.brDist > intTol && !math.IsInf(nd.bound, 1) {
		nd.pc = &pcObs{
			v: nd.brVar, dir: nd.brDir,
			delta: math.Max(0, nd.bound-sol.Objective) / nd.brDist,
			prev:  nd.pc,
		}
	}
	pick := s.selectBranch(nd, sol, basis, scr, ws)
	s.strongBranches += pick.probes
	if pick.v == -1 {
		// Integral: candidate incumbent.
		s.offerIncumbent(sol.Objective, sol.X, nd.path, pick.pc)
		return nil, nil
	}
	if pick.downInfeas && pick.upInfeas {
		// Strong-branching probes proved both directions infeasible: the
		// node itself holds no integer point.
		return nil, nil
	}

	// Primal heuristic: at the root and periodically thereafter, the hook
	// turns the fractional solution into a complete candidate, which is
	// offered only if it lies in this node's relaxation and is integral.
	// The trigger depends only on the node's depth.
	if d := nd.depth; s.opts.Rounding != nil && (d == 0 || d%4 == 0) {
		if x, ok := s.opts.Rounding(sol.X); ok {
			if obj, ok := s.candidate(nd, x); ok {
				s.offerIncumbent(obj, x, nd.path+"h", pick.pc)
			}
		}
	}

	// Children share the parent's immutable fix chain and prepend their one
	// new decision: O(1) per child instead of the O(depth) copy (O(depth²)
	// per root-to-leaf path) the slice encoding used to pay. Probe results
	// tighten the child bounds (a truncated dual-feasible probe objective
	// is a valid upper bound on its subtree) and drop probe-proven
	// infeasible directions outright.
	val, bound := pick.val, sol.Objective
	children := make([]*node, 0, 2)
	if !pick.downInfeas {
		children = append(children, &node{
			fixes: &fixChain{f: fix{Var: pick.v, Sense: lp.LE, Val: math.Floor(val)}, prev: nd.fixes},
			depth: nd.depth + 1,
			bound: math.Min(bound, pick.downBound),
			path:  nd.path + "0",
			basis: basis,
			pc:    pick.pc,
			brVar: pick.v, brDir: 0, brDist: val - math.Floor(val),
		})
	}
	if !pick.upInfeas {
		children = append(children, &node{
			fixes: &fixChain{f: fix{Var: pick.v, Sense: lp.GE, Val: math.Ceil(val)}, prev: nd.fixes},
			depth: nd.depth + 1,
			bound: math.Min(bound, pick.upBound),
			path:  nd.path + "1",
			basis: basis,
			pc:    pick.pc,
			brVar: pick.v, brDir: 1, brDist: math.Ceil(val) - val,
		})
	}
	return children, nil
}

// nodeProblem derives the node relaxation as a copy-free overlay of the
// immutable base LP: branching decisions become tightened variable
// bounds. It returns ok=false when a replayed box is empty — infeasibility
// proven without invoking the solver. The base LP is never mutated during
// the search.
//
//lint:hotpath=bounded one node derivation allocates the overlay and its copy-on-write bounds
func (s *searcher) nodeProblem(nd *node) (*lp.Problem, bool) {
	p := s.prob.LP.Overlay()
	for c := nd.fixes; c != nil; c = c.prev {
		lo, hi := p.Bounds(c.f.Var)
		if c.f.Sense == lp.LE {
			hi = math.Min(hi, c.f.Val)
		} else {
			lo = math.Max(lo, c.f.Val)
		}
		if hi < lo {
			return nil, false
		}
		p.SetBounds(c.f.Var, lo, hi)
	}
	return p, true
}

// solveNodeLP derives the node relaxation via nodeProblem, solves it and
// tallies the solve as warm or cold, and warm solves that had to
// refactorise because the parent snapshot could not be adopted as inherit
// fallbacks. A box nodeProblem proves empty is not a solve and counts in
// neither; strong-branching probes keep their own counter, so
// WarmSolves+ColdSolves stays equal to Nodes.
//
// When warm starts are enabled and the node carries a parent basis, the
// node is re-optimised with the dual simplex via ws.SolveBasisFrom; a
// failed warm start (invalid or singular basis) falls back to a cold
// Phase-1 solve. The returned basis warm-starts this node's children (nil
// after a basis-free solve).
//
// The basis-publishing paths return independent Solutions, safe to hold
// across later solves; the basis-free cold solve of DisableWarmStart
// returns a Solution aliasing ws buffers, valid only until the next solve
// on ws.
//
//lint:hotpath=bounded one node relaxation allocates an overlay plus the published basis; solver scratch comes from the caller's workspace
func (s *searcher) solveNodeLP(nd *node, ws *lp.Workspace) (*lp.Solution, *lp.Basis, error) {
	p, ok := s.nodeProblem(nd)
	if !ok {
		return &lp.Solution{Status: lp.Infeasible}, nil, nil
	}
	lpOpts := lp.Options{Deadline: s.opts.Deadline}

	// Under DisableWarmStart children inherit from no solve, so the cold
	// solve publishes no basis.
	if s.opts.DisableWarmStart {
		s.coldSolves++
		sol, err := ws.Solve(p, lpOpts)
		return sol, nil, err
	}
	if nd.basis != nil {
		if sol, basis, err := ws.SolveBasisFrom(p, nd.basis, lpOpts); err == nil {
			s.warmSolves++
			if sol.FactorRebuilt {
				s.inheritFallbacks++
			}
			return sol, basis, nil
		}
		// Warm start failed; fall through to a cold solve.
	}
	s.coldSolves++
	return ws.SolveBasis(p, lpOpts)
}

// candTol is the relative tolerance within which a rounding-hook
// candidate must meet the node relaxation's rows and boxes, scaled by
// max(1, |rhs|, max_j |a_j·x_j|) for a row and by max(1, |bound|) for a
// box. A candidate built exactly, like the fixed-assignment schedules of
// internal/core, misses a row only by rounding, far below this.
const candTol = 1e-9

// candidate checks a rounding-hook vector against node nd's relaxation —
// its length, the integrality of Problem.Integers, the boxes (the LP's and
// the node's branching fixes) and every row — and returns its objective
// c·x. A NaN or infinite
// entry fails the check.
func (s *searcher) candidate(nd *node, x []float64) (float64, bool) {
	p := s.prob.LP
	if len(x) != p.NumVars() || !integralOn(s.prob.Integers, x) {
		return 0, false
	}
	for v, xv := range x {
		lo, hi := p.Bounds(v)
		if math.IsInf(xv, 0) || !(xv >= lo-boxTol(lo) && xv <= hi+boxTol(hi)) {
			return 0, false
		}
	}
	for c := nd.fixes; c != nil; c = c.prev {
		xv, val := x[c.f.Var], c.f.Val
		if c.f.Sense == lp.LE && xv > val+boxTol(val) || c.f.Sense == lp.GE && xv < val-boxTol(val) {
			return 0, false
		}
	}
	for i := 0; i < p.NumConstraints(); i++ {
		terms, sense, rhs := p.Constraint(i)
		act, scale := 0.0, math.Max(1, math.Abs(rhs))
		for _, t := range terms {
			a := t.Coef * x[t.Var]
			act += a
			scale = math.Max(scale, math.Abs(a))
		}
		tol := candTol * scale
		var ok bool
		switch sense {
		case lp.LE:
			ok = act <= rhs+tol
		case lp.GE:
			ok = act >= rhs-tol
		default:
			ok = math.Abs(act-rhs) <= tol
		}
		if !ok {
			return 0, false
		}
	}
	var obj float64
	for v, xv := range x {
		obj += p.ObjCoef(v) * xv
	}
	return obj, true
}

// boxTol is candTol scaled for a bound b (0 at an infinite bound, where
// nothing needs slack).
func boxTol(b float64) float64 {
	if math.IsInf(b, 0) {
		return 0
	}
	return candTol * math.Max(1, math.Abs(b))
}

// integralOn reports whether every listed variable of x is integral
// within intTol.
func integralOn(integers []int, x []float64) bool {
	for _, v := range integers {
		f := x[v] - math.Floor(x[v])
		if math.Min(f, 1-f) > intTol {
			return false
		}
	}
	return true
}

// incumbentTieTol bounds the objective difference under which two
// incumbent candidates are considered tied and the tree-path tie-break
// applies. It is far below the pruning gap gapTol, so tie-breaking never
// degrades the reported objective beyond the solver's own tolerance.
const incumbentTieTol = 1e-9

// offerIncumbent installs (obj, x) as the incumbent if it improves, or if
// it ties the current incumbent (within incumbentTieTol) and comes from a
// lexicographically earlier tree path. pc is the offering node's
// pseudo-cost chain; the winning candidate's chain is what ExportWarm
// hands to the next solve.
func (s *searcher) offerIncumbent(obj float64, x []float64, path string, pc *pcObs) {
	better := obj > s.incumbent+incumbentTieTol
	tied := !better && obj > s.incumbent-incumbentTieTol &&
		s.incumbentX != nil && path < s.incumbentPath
	if !better && !tied {
		return
	}
	if obj > s.incumbent {
		s.incumbent = obj
	}
	s.incumbentX = append([]float64(nil), x...)
	s.incumbentPath = path
	s.incumbentPC = pc
}
