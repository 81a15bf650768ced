package mip

import (
	"container/heap"
	"errors"
	"math"
	"sync"
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
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}

	s := &searcher{
		prob:      p,
		opts:      opts,
		incumbent: math.Inf(-1),
	}
	// Cross-solve warm state (incremental re-solves): graft the adapted
	// root basis and pseudo-cost chain onto the root node.
	if opts.Warm != nil {
		s.importWarm(opts.Warm)
	}
	s.cond = sync.NewCond(&s.mu)
	heap.Push(&s.queue, &node{bound: math.Inf(1), brVar: -1, basis: s.rootFrom, pc: s.rootPC})

	// The search runs on this goroutine; Workers-1 helpers expand queued
	// nodes ahead of it (see speculate). Each owns a private lp.Workspace
	// and branching scratch, reused across every node it solves: node
	// solves hit zero steady-state solver allocations, and workspaces are
	// never shared across goroutines (see Options.Workers).
	var wg sync.WaitGroup
	s.helpers = workers - 1
	for w := 0; w < s.helpers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.speculate(lp.NewWorkspace(), newBranchScratch(s.prob.LP.NumVars()))
		}()
	}
	ws := opts.Workspace
	if ws == nil {
		ws = lp.NewWorkspace()
	}
	s.run(ws, newBranchScratch(s.prob.LP.NumVars()))
	s.mu.Lock()
	s.finished = true
	s.cond.Broadcast()
	s.mu.Unlock()
	wg.Wait()

	if s.err != nil {
		return nil, s.err
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

	// helpers is the number of speculate goroutines (Workers-1); ahead
	// holds the queued nodes they may expand, newest last; finished tells
	// them the search is over.
	helpers  int
	ahead    []*node
	finished bool

	mu               sync.Mutex
	cond             *sync.Cond
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
	err              error
}

// openBound returns the best upper bound over the open nodes and the
// incumbent; callers must not hold the mutex.
func (s *searcher) openBound() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.openBoundLocked()
}

// openBoundLocked is openBound's locked core: the global dual bound over
// the open queue and the incumbent. The search loop calls it only between
// nodes, so no node is in flight.
func (s *searcher) openBoundLocked() float64 {
	b := s.incumbent
	for _, nd := range s.queue.items {
		if nd.bound > b {
			b = nd.bound
		}
	}
	return b
}

// gapMetLocked reports whether the RelGap early-termination criterion
// holds: an incumbent exists and the global dual bound (including extra,
// the node the caller is about to process) is within the relative gap of
// it. Caller holds the mutex.
func (s *searcher) gapMetLocked(extra *node) bool {
	if s.opts.RelGap <= 0 || math.IsInf(s.incumbent, -1) {
		return false
	}
	db := s.openBoundLocked()
	if extra != nil && extra.bound > db {
		db = extra.bound
	}
	return db-s.incumbent <= s.opts.RelGap*math.Max(1, math.Abs(s.incumbent))
}

// admitLocked runs the node-budget and deadline gates for a node about to
// be processed and, when admitted, counts it.
// It returns false — with nd pushed back on the queue for bound reporting
// and the search stopped — when a limit struck. Caller holds the mutex.
func (s *searcher) admitLocked(nd *node) bool {
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
	if s.gapMetLocked(nd) {
		heap.Push(&s.queue, nd)
		s.stopped = true
		return false
	}
	s.nodes++
	return true
}

// run is the search loop: it takes nodes in best-bound order, processes
// them and plunges, the same sequence at any Workers setting. ws is its
// solver workspace and scr its branching scratch; neither may be shared
// with any other goroutine.
func (s *searcher) run(ws *lp.Workspace, scr *branchScratch) {
	for {
		s.mu.Lock()
		if s.stopped || s.queue.Len() == 0 {
			s.mu.Unlock()
			return
		}
		nd := heap.Pop(&s.queue).(*node)
		if nd.bound <= s.incumbent+gapTol {
			// Pruned by bound.
			s.mu.Unlock()
			continue
		}
		if !s.admitLocked(nd) {
			s.mu.Unlock()
			return
		}
		s.mu.Unlock()

		// Process nd, then plunge: continue directly with one of its
		// children instead of going back through the global queue. The
		// search dives down one path (bounded depth), keeping the parent's
		// basis hot in its workspace.
		for depth := 0; nd != nil; depth++ {
			children, fatal := s.process(nd, ws, scr)

			s.mu.Lock()
			if fatal != nil && s.err == nil {
				s.err = fatal
				s.stopped = true
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
					if s.helpers > 0 {
						s.ahead = append(s.ahead, c)
					}
				}
			}
			if carry != nil && !s.admitLocked(carry) {
				carry = nil
			}
			nd = carry
			s.cond.Broadcast()
			s.mu.Unlock()
		}
	}
}

// expansion is what processing a node computes from the node alone,
// never from the incumbent: its relaxation's solve and, when the node is
// branched on, the branching decision and the rounding candidate. At
// Workers > 1 helpers compute expansions ahead of the search (see
// speculate); the search applies them, in its own order, exactly as it
// applies the ones it computes itself.
type expansion struct {
	ns  nodeSolve
	err error

	// branched reports that pick and the hook fields are set: always on a
	// helper's expansion, and on the search's own only when the node
	// survived the pruning test after its solve.
	branched bool
	pick     branchPick
	hookX    []float64 // the rounding candidate when hookOK
	hookObj  float64
	hookOK   bool

	done bool // a helper finished it (guarded by searcher.mu)
}

// process applies one node's expansion — taken from a helper, or computed
// on the search's workspace — and returns the child nodes.
func (s *searcher) process(nd *node, ws *lp.Workspace, scr *branchScratch) (children []*node, fatal error) {
	var own expansion
	e := s.claim(nd)
	if e == nil {
		e = &own
		e.ns, e.err = s.solveNodeLP(nd, nd.basis, ws)
	}
	if e.err != nil {
		return nil, e.err
	}
	if e.ns.counted {
		s.countSolve(e.ns.warm, e.ns.rebuilt)
	}
	sol, basis := e.ns.sol, e.ns.basis
	switch sol.Status {
	case lp.Infeasible:
		return nil, nil
	case lp.Unbounded:
		if nd.depth == 0 {
			return nil, ErrUnbounded
		}
		return nil, nil // cannot happen below a bounded root; drop defensively
	case lp.TimeLimit, lp.IterLimit:
		s.mu.Lock()
		s.stopped = true
		s.mu.Unlock()
		return nil, nil
	}

	if nd.depth == 0 && s.opts.ExportWarm && basis != nil {
		// Root relaxation basis for WarmState export. Captured before the
		// pruning gate so even a one-node search exports it; an independent
		// copy-out, safe to hold past later solves.
		s.mu.Lock()
		s.rootBasis = basis
		s.mu.Unlock()
	}

	s.mu.Lock()
	pruned := sol.Objective <= s.incumbent+gapTol
	s.mu.Unlock()
	if pruned {
		return nil, nil
	}

	if !e.branched {
		s.branch(nd, e, scr, ws)
	}
	pick := e.pick
	if pick.probes > 0 {
		s.mu.Lock()
		s.strongBranches += pick.probes
		s.mu.Unlock()
	}
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

	val := pick.val
	bound := sol.Objective
	if e.hookOK {
		s.offerIncumbent(e.hookObj, e.hookX, nd.path+"h", pick.pc)
	}

	// Children share the parent's immutable fix chain and prepend their one
	// new decision: O(1) per child instead of the O(depth) copy (O(depth²)
	// per root-to-leaf path) the slice encoding used to pay. Probe results
	// tighten the child bounds (a truncated dual-feasible probe objective
	// is a valid upper bound on its subtree) and drop probe-proven
	// infeasible directions outright.
	children = make([]*node, 0, 2)
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

// branch completes e past the node's solve: it records the pseudo-cost
// observation of the branching step that created nd, picks the branching
// variable and, at a fractional node the hook runs at, builds and checks
// the rounding candidate.
func (s *searcher) branch(nd *node, e *expansion, scr *branchScratch, ws *lp.Workspace) {
	sol := e.ns.sol
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
	e.pick = s.selectBranch(nd, sol, e.ns.basis, scr, ws)
	e.branched = true
	if e.pick.v == -1 || e.pick.downInfeas && e.pick.upInfeas {
		return
	}
	// Primal heuristic: at the root and periodically thereafter, the hook
	// turns the fractional solution into a complete candidate, which is
	// offered only if it lies in this node's relaxation and is integral.
	// The trigger depends only on the node's depth, so the set of
	// candidates does not depend on the order nodes are taken in.
	d := nd.depth
	if s.opts.Rounding != nil && (d == 0 || d%4 == 0) {
		if x, ok := s.opts.Rounding(sol.X); ok {
			e.hookObj, e.hookOK = s.candidate(nd, x)
			e.hookX = x
		}
	}
}

// claim hands the search nd's expansion when a helper took the node,
// waiting for the helper to finish it; otherwise it marks the node taken,
// so no helper starts on it, and returns nil.
func (s *searcher) claim(nd *node) *expansion {
	if s.helpers == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !nd.claimed {
		nd.claimed = true
		return nil
	}
	for !nd.exp.done {
		s.cond.Wait()
	}
	return nd.exp
}

// speculate is a helper's loop at Workers > 1. It takes the newest queued
// node no one has taken and the incumbent cannot prune yet, and expands it
// on its own workspace ws and scratch scr: the node's solve, then branch,
// whatever the incumbent. The search later applies the expansion as if it
// had computed it, so the search — nodes, incumbents, counters — is the
// one Workers = 1 runs. An expansion of a node the search then prunes is
// wasted work, never a different result.
func (s *searcher) speculate(ws *lp.Workspace, scr *branchScratch) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		for len(s.ahead) == 0 && !s.finished {
			s.cond.Wait()
		}
		if s.finished {
			return
		}
		nd := s.ahead[len(s.ahead)-1]
		s.ahead = s.ahead[:len(s.ahead)-1]
		// The incumbent only rises, so a node it prunes now is pruned when
		// the search reaches it.
		if nd.claimed || nd.bound <= s.incumbent+gapTol {
			continue
		}
		e := &expansion{}
		nd.claimed, nd.exp = true, e
		s.mu.Unlock()
		s.expand(nd, e, ws, scr)
		s.mu.Lock()
		e.done = true
		s.cond.Broadcast()
	}
}

// expand fills e for nd on a helper: the node's solve and, when it is
// optimal, branch.
func (s *searcher) expand(nd *node, e *expansion, ws *lp.Workspace, scr *branchScratch) {
	e.ns, e.err = s.solveNodeLP(nd, nd.basis, ws)
	if e.err != nil {
		return
	}
	if s.opts.DisableWarmStart {
		// The basis-free solve aliases ws, which this helper solves on
		// again before the search reads the solution.
		sol := *e.ns.sol
		sol.X = append([]float64(nil), sol.X...)
		e.ns.sol = &sol
	}
	if e.ns.sol.Status == lp.Optimal {
		s.branch(nd, e, scr, ws)
	}
}

// nodeProblem derives the node relaxation as a copy-free overlay of the
// immutable base LP: branching decisions become tightened variable
// bounds. It returns ok=false when a replayed box is empty — infeasibility
// proven without invoking the solver. The base LP is never mutated during
// the search, which is what makes concurrent overlays by parallel workers
// safe.
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

// nodeSolve is one node relaxation's solve: the solution, the basis the
// node's children warm-start from, and how countSolve tallies it (counted
// is false when nodeProblem proved the box empty without a solve).
type nodeSolve struct {
	sol     *lp.Solution
	basis   *lp.Basis
	counted bool
	warm    bool
	rebuilt bool
}

// solveNodeLP derives the node relaxation via nodeProblem and solves it.
//
// When warm starts are enabled and a parent basis is available, the node
// is re-optimised with the dual simplex via ws.SolveBasisFrom; a failed
// warm start (invalid or singular basis) falls back to a cold Phase-1
// solve. The returned basis warm-starts this node's children (nil after a
// basis-free solve or when the relaxation was not solved to optimality).
//
// Every solve runs on ws, the calling goroutine's private workspace. The
// basis-publishing paths return independent Solutions, safe to hold across
// later solves; the basis-free cold solve of DisableWarmStart returns a
// Solution aliasing ws buffers, valid only until the next solve on ws.
//
//lint:hotpath=bounded one node relaxation allocates an overlay plus the published basis; solver scratch comes from the caller's workspace
func (s *searcher) solveNodeLP(nd *node, from *lp.Basis, ws *lp.Workspace) (nodeSolve, error) {
	p, ok := s.nodeProblem(nd)
	if !ok {
		return nodeSolve{sol: &lp.Solution{Status: lp.Infeasible}}, nil
	}
	lpOpts := lp.Options{Deadline: s.opts.Deadline}

	// Under DisableWarmStart children inherit from no solve, so the cold
	// solve publishes no basis.
	if s.opts.DisableWarmStart {
		sol, err := ws.Solve(p, lpOpts)
		return nodeSolve{sol: sol, counted: true}, err
	}
	if from != nil {
		if sol, basis, err := ws.SolveBasisFrom(p, from, lpOpts); err == nil {
			return nodeSolve{sol: sol, basis: basis, counted: true, warm: true, rebuilt: sol.FactorRebuilt}, nil
		}
		// Warm start failed; fall through to a cold solve.
	}
	sol, basis, err := ws.SolveBasis(p, lpOpts)
	if err != nil {
		return nodeSolve{}, err
	}
	return nodeSolve{sol: sol, basis: basis, counted: true}, nil
}

// countSolve tallies warm vs cold relaxation solves and inherit fallbacks
// (warm starts that had to refactorise because the parent snapshot could
// not be adopted) for Result reporting, as the search applies each node's
// solve; strong-branching probes keep their own counter, so
// WarmSolves+ColdSolves stays equal to Nodes.
func (s *searcher) countSolve(warm, inheritFallback bool) {
	s.mu.Lock()
	if warm {
		s.warmSolves++
		if inheritFallback {
			s.inheritFallbacks++
		}
	} else {
		s.coldSolves++
	}
	s.mu.Unlock()
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
// lexicographically earlier tree path. Only the search offers, in its own
// order, so the winner is the same at any Workers setting. pc is the
// offering node's pseudo-cost chain; the winning candidate's chain is what
// ExportWarm hands to the next solve.
func (s *searcher) offerIncumbent(obj float64, x []float64, path string, pc *pcObs) {
	s.mu.Lock()
	defer s.mu.Unlock()
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
