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

// Solve runs branch-and-cut on p.
func Solve(p *Problem, opts Options) (*Result, error) {
	start := time.Now() //lint:ignore wallclock sanctioned once-per-solve stamp for Result wall-time reporting
	if opts.MaxNodes == 0 {
		opts.MaxNodes = 1 << 20
	}
	if opts.Gap == 0 {
		opts.Gap = 1e-6
	}
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}

	s := &searcher{
		prob:      p,
		opts:      opts,
		incumbent: math.Inf(-1),
		inflight:  make(map[*node]struct{}),
	}
	// Root presolve (when opts.LP.Presolve selects it): reduce the LP once
	// with the integer columns kept, search entirely in the reduced space —
	// warm-start chains and bound branching work unchanged because integer
	// indices and values map one-to-one — and postsolve the incumbent at
	// the end. Node solves must not re-presolve: their basis snapshots have
	// to stay coherent across the warm-start chain.
	if ps := lp.RootPresolve(p.LP, p.Integers, opts.LP); ps != nil {
		if ps.Status() == lp.Infeasible {
			return &Result{
				Status: Infeasible, Bound: math.Inf(-1),
				Gap: math.Inf(1), Elapsed: time.Since(start),
			}, nil
		}
		if red := ps.Reduced(); red != nil {
			ints := make([]int, len(p.Integers))
			for i, v := range p.Integers {
				ints[i] = ps.Col(v)
			}
			s.prob = &Problem{LP: red, Integers: ints}
			s.ps = ps
			s.opts.LP.Presolve = lp.PresolveOff
			if orig := opts.Rounding; orig != nil {
				// The caller's heuristic sees and returns original-space
				// vectors; the candidate is checked in the reduced space.
				n := p.LP.NumVars()
				s.opts.Rounding = func(xr []float64) ([]float64, bool) {
					x, ok := orig(ps.PostsolveX(xr))
					if !ok || len(x) != n {
						return nil, false
					}
					return ps.ReduceX(x), true
				}
			}
		} else {
			// Presolve decided every column (possible only with no integer
			// variables, which are always kept): the box solution is the
			// optimum if integral, else search the original problem.
			x := ps.PostsolveX(nil)
			if integralOn(p.Integers, x) {
				var obj float64
				for v := 0; v < p.LP.NumVars(); v++ {
					obj += p.LP.ObjCoef(v) * x[v]
				}
				return &Result{
					Status: Optimal, Objective: obj, X: x, Bound: obj,
					Nodes: 0, Elapsed: time.Since(start),
				}, nil
			}
		}
	}
	// Cross-solve warm state (incremental re-solves): record the base-row
	// watermark first — export needs it even without an import — then graft
	// the imported cut pool, adapted root basis and pseudo-cost chain onto
	// the searcher. Both directions are disabled under root presolve, whose
	// row/column remapping the exported state does not survive.
	s.baseLP = s.prob.LP
	s.baseRows = s.prob.LP.NumConstraints()
	if opts.Warm != nil && s.ps == nil {
		s.importWarm(opts.Warm)
	}
	// The caller-owned workspace serves the serial pre-search phases (root
	// cut loop) and, below, the single worker; parallel searches ignore it.
	rootWS := opts.Workspace
	if rootWS == nil || workers > 1 {
		rootWS = lp.NewWorkspace()
	}
	// Root relaxation and cutting loop: solve the root and, while its
	// solution is fractional, separate valid inequalities from the model
	// structure, append the violated ones and re-optimise, then drop the
	// slack ones and make the surviving pool part of every node relaxation
	// (see cuts.go). The loop's last optimal solution is the root node's
	// relaxation, so the root is solved once. Builder hints index the
	// as-built rows, so they only apply when no root presolve remapped
	// them.
	if len(s.prob.Integers) > 0 {
		var hint *Structure
		if s.ps == nil {
			hint = p.Structure
		}
		s.rootCuts(hint, rootWS)
	}
	s.cond = sync.NewCond(&s.mu)
	heap.Push(&s.queue, &node{bound: math.Inf(1), brVar: -1, basis: s.rootFrom, pc: s.rootPC})

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker owns a private lp.Workspace and branching scratch,
			// reused across every node it dequeues: node solves hit zero
			// steady-state solver allocations, and workspaces are never
			// shared across goroutines (see Options.Workers). A serial
			// search reuses the pre-search workspace (the caller's, when
			// Options.Workspace provided one).
			ws := rootWS
			if workers > 1 {
				ws = lp.NewWorkspace()
			}
			s.run(ws, newBranchScratch(s.prob.LP.NumVars()))
		}()
	}
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
		Cuts:             s.cutsKept,
		CutRounds:        s.cutRounds,
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
	if s.ps != nil {
		// Lift the reduced-space result back to the original problem: X
		// through the undo stack, objective and bound by the eliminated
		// columns' offset (reduced objective + offset = original exactly;
		// infinite bounds stay infinite).
		if res.X != nil {
			res.X = s.ps.PostsolveX(res.X)
		}
		if hasIncumbent {
			res.Objective += s.ps.ObjOffset()
		}
		res.Bound += s.ps.ObjOffset()
	}
	if hasIncumbent {
		res.Gap = math.Max(0, res.Bound-res.Objective)
	} else {
		res.Gap = math.Inf(1)
	}
	if opts.ExportWarm && s.ps == nil {
		res.Warm = s.exportWarm()
	}
	return res, nil
}

type searcher struct {
	prob *Problem
	opts Options
	// ps is non-nil when the search runs in root-presolved reduced space:
	// prob then holds the reduced LP with remapped integer indices, and
	// the final result is postsolved back (see Solve).
	ps *lp.Presolved

	// Cross-solve warm state (see warm.go). baseLP/baseRows snapshot the
	// problem before any cut rows joined it — the layout WarmState.BaseRows
	// describes. pool is the current root cut pool (imported then updated
	// by the root loop); rootFrom/rootPC seed the root node's basis and
	// pseudo-cost chain; warmMode records that an import happened.
	baseLP   *lp.Problem
	baseRows int
	pool     []cut
	rootFrom *lp.Basis
	rootPC   *pcObs
	warmMode bool

	// rootSol is the root relaxation the cut loop solved, when it is
	// optimal for exactly the rows the root node carries (see rootCuts);
	// the root node adopts it with basis rootFrom instead of solving
	// again. rootWarm records whether the producing solve was warm, for
	// countSolve. nil: the root node solves its relaxation itself.
	rootSol  *lp.Solution
	rootWarm bool

	mu               sync.Mutex
	cond             *sync.Cond
	queue            nodeQueue
	inflight         map[*node]struct{}
	incumbent        float64
	incumbentX       []float64
	incumbentPath    string
	incumbentPC      *pcObs    // pseudo-cost chain at the incumbent's node (export)
	rootBasis        *lp.Basis // root relaxation basis captured for export
	nodes            int
	warmSolves       int
	coldSolves       int
	inheritFallbacks int
	cutsKept         int
	cutRounds        int
	strongBranches   int
	stopped          bool
	err              error
}

// openBound returns the best upper bound over open and in-flight nodes and
// the incumbent; callers must not hold the mutex.
func (s *searcher) openBound() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.openBoundLocked()
}

// openBoundLocked is openBound's locked core: the global dual bound over
// the open queue, the in-flight nodes and the incumbent.
func (s *searcher) openBoundLocked() float64 {
	b := s.incumbent
	for _, nd := range s.queue.items {
		if nd.bound > b {
			b = nd.bound
		}
	}
	for nd := range s.inflight {
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
// be processed and, when admitted, registers it in flight and counts it.
// It returns false — with nd pushed back on the queue for bound reporting
// and the search stopped — when a limit struck. Caller holds the mutex.
func (s *searcher) admitLocked(nd *node) bool {
	if s.nodes >= s.opts.MaxNodes {
		heap.Push(&s.queue, nd)
		s.stopped = true
		s.cond.Broadcast()
		return false
	}
	//lint:ignore wallclock sanctioned deadline probe, once per admitted branch-and-bound node
	if !s.opts.Deadline.IsZero() && time.Now().After(s.opts.Deadline) {
		heap.Push(&s.queue, nd)
		s.stopped = true
		s.cond.Broadcast()
		return false
	}
	if s.gapMetLocked(nd) {
		heap.Push(&s.queue, nd)
		s.stopped = true
		s.cond.Broadcast()
		return false
	}
	s.nodes++
	s.inflight[nd] = struct{}{}
	return true
}

// run is one worker's loop. ws is the worker's private solver workspace
// and scr its private branching scratch; neither may be shared with any
// other goroutine.
func (s *searcher) run(ws *lp.Workspace, scr *branchScratch) {
	for {
		s.mu.Lock()
		for s.queue.Len() == 0 && len(s.inflight) > 0 && !s.stopped {
			s.cond.Wait()
		}
		if s.stopped || (s.queue.Len() == 0 && len(s.inflight) == 0) {
			s.cond.Broadcast()
			s.mu.Unlock()
			return
		}
		nd := heap.Pop(&s.queue).(*node)
		if nd.bound <= s.incumbent+s.opts.Gap {
			// Pruned by bound; nothing in flight changes.
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
		// worker dives down one path (bounded depth), keeping the parent's
		// basis hot in its workspace. Plunging only reorders exploration;
		// the tree, the pruning and the incumbents are untouched, so
		// determinism across worker counts is preserved.
		for depth := 0; nd != nil; depth++ {
			children, fatal := s.process(nd, ws, scr)

			s.mu.Lock()
			delete(s.inflight, nd)
			if fatal != nil && s.err == nil {
				s.err = fatal
				s.stopped = true
			}
			var carry *node
			if !s.stopped && depth < maxPlunge {
				// Dive onto the child with the stronger bound (tie: the
				// down branch, matching the queue's path tie-break).
				for _, c := range children {
					if c.bound <= s.incumbent+s.opts.Gap {
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
			if carry != nil && !s.admitLocked(carry) {
				carry = nil
			}
			nd = carry
			s.cond.Broadcast()
			s.mu.Unlock()
		}
	}
}

// process solves one node relaxation (on the worker's workspace) and
// returns child nodes.
func (s *searcher) process(nd *node, ws *lp.Workspace, scr *branchScratch) (children []*node, fatal error) {
	var sol *lp.Solution
	var basis *lp.Basis
	if nd.depth == 0 && s.rootSol != nil {
		// The root cut loop already solved this relaxation; it counts as
		// the solve that produced it.
		sol, basis = s.rootSol, nd.basis
		s.countSolve(s.rootWarm, sol.FactorRebuilt)
	} else {
		var err error
		if sol, basis, err = s.solveNodeLP(nd, nd.basis, ws); err != nil {
			return nil, err
		}
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
		s.mu.Lock()
		s.stopped = true
		s.mu.Unlock()
		return nil, nil
	}

	if nd.depth == 0 && s.opts.ExportWarm && basis != nil {
		// Root relaxation basis for WarmState export. Captured before the
		// pruning gate so even a one-node search exports it; an independent
		// copy-out, safe to hold past this worker's next solve.
		s.mu.Lock()
		s.rootBasis = basis
		s.mu.Unlock()
	}

	s.mu.Lock()
	pruned := sol.Objective <= s.incumbent+s.opts.Gap
	s.mu.Unlock()
	if pruned {
		return nil, nil
	}

	// Record the pseudo-cost observation of the branching step that created
	// this node: the relaxation degraded by (parent bound - node objective)
	// over a bound movement of brDist. The chain extension is node-local
	// and immutable, so estimates depend only on ancestry (see pcObs).
	if nd.brVar >= 0 && nd.brDist > intTol && !math.IsInf(nd.bound, 1) {
		nd.pc = &pcObs{
			v: nd.brVar, dir: nd.brDir,
			delta: math.Max(0, nd.bound-sol.Objective) / nd.brDist,
			prev:  nd.pc,
		}
	}

	pick := s.selectBranch(nd, sol, basis, scr, ws)
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

	// Primal heuristic: at the root and periodically thereafter, the hook
	// turns the fractional solution into a complete candidate, which is
	// offered only if it lies in this node's relaxation and is integral.
	// The trigger depends only on the node's depth — never on a dequeue
	// counter — so the set of candidates is identical at any worker count.
	d := nd.depth
	if s.opts.Rounding != nil && (d == 0 || d%4 == 0) {
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

// solveNodeLP derives the node relaxation via nodeProblem and solves it.
//
// When warm starts are enabled and a parent basis is available, the node
// is re-optimised with the dual simplex via ws.SolveBasisFrom; a failed
// warm start (invalid or singular basis) falls back to a cold Phase-1
// solve. The returned basis warm-starts this node's children (nil after a
// basis-free solve or when the relaxation was not solved to optimality).
//
// Every solve runs on ws, the calling worker's private workspace. The
// basis-publishing paths return independent Solutions, safe to hold across
// later solves; the basis-free cold solve of DisableWarmStart returns a
// Solution aliasing ws buffers, valid only until the next solve on this
// worker.
//
//lint:hotpath=bounded one node relaxation allocates an overlay plus the published basis; solver scratch comes from the worker's workspace
func (s *searcher) solveNodeLP(nd *node, from *lp.Basis, ws *lp.Workspace) (*lp.Solution, *lp.Basis, error) {
	p, ok := s.nodeProblem(nd)
	if !ok {
		return &lp.Solution{Status: lp.Infeasible}, nil, nil
	}
	lpOpts := s.opts.LP
	lpOpts.Deadline = s.opts.Deadline

	// Under DisableWarmStart children inherit from no solve, so the cold
	// solve publishes no basis.
	if s.opts.DisableWarmStart {
		sol, err := ws.Solve(p, lpOpts)
		s.countSolve(false, false)
		return sol, nil, err
	}
	if from != nil {
		if sol, basis, err := ws.SolveBasisFrom(p, from, lpOpts); err == nil {
			s.countSolve(true, sol.FactorRebuilt)
			return sol, basis, nil
		}
		// Warm start failed; fall through to a cold solve.
	}
	sol, basis, err := ws.SolveBasis(p, lpOpts)
	if err != nil {
		return nil, nil, err
	}
	s.countSolve(false, false)
	return sol, basis, nil
}

// countSolve tallies warm vs cold relaxation solves and inherit fallbacks
// (warm starts that had to refactorise because the parent snapshot could
// not be adopted) for Result reporting. Node solves go through here, the
// root's once, as the solve that produced it; the other root cut-loop
// solves and strong-branching probes do not (they keep their own counters
// so WarmSolves+ColdSolves stays equal to Nodes).
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
// its length, the integrality of Problem.Integers, the boxes (the base
// LP's and the node's branching fixes) and every row (base rows and the
// kept cut pool) — and returns its objective c·x. A NaN or infinite
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
// applies. It is far below the default pruning Gap, so tie-breaking never
// degrades the reported objective beyond the solver's own tolerance.
const incumbentTieTol = 1e-9

// offerIncumbent installs (obj, x) as the incumbent if it improves, or if
// it ties the current incumbent (within incumbentTieTol) and comes from a
// lexicographically earlier tree path. The path tie-break makes the
// winning solution a function of the search tree alone, not of which
// worker reported first, so Solve returns identical X at any Workers
// setting (up to exact-objective ties between distinct optima, which the
// path ordering then resolves deterministically as well).
// pc is the offering node's pseudo-cost chain; the winning candidate's
// chain is what ExportWarm hands to the next solve (the deterministic
// tie-break keeps it scheduling-independent too).
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
