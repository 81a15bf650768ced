package mip

// Pseudo-cost / reliability branching, the search's branching rule. A node's
// pseudo-cost estimates come exclusively from its own ancestry — the
// immutable pcObs chain inherited parent→child plus the strong-branching
// probes run at the node itself — never from a shared store, so the shape
// of the search tree is a function of the tree alone and incumbents stay
// bit-identical at any Options.Workers setting.
//
// Reliability rule: a candidate whose up or down direction has no
// observation yet is "unreliable"; the most fractional unreliable
// candidates are probed by bounded dual-simplex re-solves from the node's
// own optimal basis (Workspace.SolveFrom with a small pivot budget — the
// non-publishing warm path, so probes cost no basis copy-outs). Probes pay
// twice: their objectives become pseudo-cost observations AND valid child
// bounds (a truncated probe that stayed in the dual phase is still dual
// feasible, see lp.Solution.DualFeasible), and a probe that proves a
// direction infeasible removes that child outright — or the whole node,
// when both directions die.

import (
	"math"

	"repro/internal/lp"
)

const (
	// pcEps floors the per-direction score in the product rule so one
	// zero-degradation direction cannot erase the other's signal.
	pcEps = 1e-4
	// probeMaxCands caps how many unreliable candidates one node probes.
	probeMaxCands = 32
	// probePivots is the dual-simplex pivot budget per probe direction.
	probePivots = 40
)

// branchPick is the branching decision selectBranch returns for one node.
// v == -1 means the relaxation is integral. downBound/upBound are upper
// bounds on the child subtrees (+Inf when no probe tightened them), and
// the infeasibility flags mark probe-proven dead directions. pc is the
// node's observation chain extended with this node's probe results; the
// children inherit it.
type branchPick struct {
	v                    int
	val                  float64
	downBound, upBound   float64
	downInfeas, upInfeas bool
	pc                   *pcObs
}

// pcCand is one fractional branching candidate during selection.
type pcCand struct {
	v          int
	val, dist  float64
	downObj    float64 // probe objective (valid upper bound), NaN if none
	upObj      float64
	downInf    bool
	upInf      bool
	unreliable bool
	tried      bool // already selected for probing this node
}

// branchScratch is one worker's private selection scratch: per-variable
// accumulators written by walking the node's observation chain and zeroed
// by walking it again (O(depth), no O(nVars) clear per node), plus the
// reusable candidate list.
type branchScratch struct {
	dnSum, upSum []float64
	dnCnt, upCnt []int
	cands        []pcCand
}

// newBranchScratch sizes a worker's scratch for an nVars-variable problem.
func newBranchScratch(nVars int) *branchScratch {
	return &branchScratch{
		dnSum: make([]float64, nVars),
		upSum: make([]float64, nVars),
		dnCnt: make([]int, nVars),
		upCnt: make([]int, nVars),
	}
}

// selectBranch picks the branching variable for a node whose relaxation
// solved to sol. basis is the node's own optimal basis (nil disables
// probing: probes need a dual-feasible warm start). The worker's scratch
// arrays are dirty only between the two chain walks inside this call.
//
//lint:hotpath=bounded candidate collection reuses worker scratch; probes allocate one extra overlay per probing node
func (s *searcher) selectBranch(nd *node, sol *lp.Solution, basis *lp.Basis, scr *branchScratch, ws *lp.Workspace) branchPick {
	// Fractional candidates, in Integers order (deterministic).
	cands := scr.cands[:0]
	for _, v := range s.prob.Integers {
		f := sol.X[v] - math.Floor(sol.X[v])
		dist := math.Min(f, 1-f)
		if dist > intTol {
			cands = append(cands, pcCand{
				v: v, val: sol.X[v], dist: dist,
				downObj: math.NaN(), upObj: math.NaN(),
			})
		}
	}
	scr.cands = cands
	if len(cands) == 0 {
		return branchPick{v: -1, pc: nd.pc}
	}

	// Accumulate the inherited observation chain into the per-variable
	// scratch. totalSum/totalCnt feed the fallback estimate for directions
	// with no observation of their own.
	chain := nd.pc
	var totalSum float64
	totalCnt := 0
	for o := chain; o != nil; o = o.prev {
		if o.dir == 0 {
			scr.dnSum[o.v] += o.delta
			scr.dnCnt[o.v]++
		} else {
			scr.upSum[o.v] += o.delta
			scr.upCnt[o.v]++
		}
		totalSum += o.delta
		totalCnt++
	}
	for i := range cands {
		c := &cands[i]
		c.unreliable = scr.dnCnt[c.v] == 0 || scr.upCnt[c.v] == 0
	}

	// Strong-branching probes on the most fractional unreliable
	// candidates. Everything a probe learns is appended to the chain, so
	// the estimates below and every descendant see it.
	probes := 0
	if basis != nil {
		var pp *lp.Problem
		probeOpts := s.opts.LP
		probeOpts.Deadline = s.opts.Deadline
		probeOpts.MaxIters = probePivots
		probed := 0
		for probed < probeMaxCands {
			// Next unprobed unreliable candidate by fractionality (tie:
			// lower variable index) — selection, like everything here,
			// depends only on node-local data.
			best := -1
			for i := range cands {
				c := &cands[i]
				if !c.unreliable || c.tried {
					continue
				}
				if best == -1 || c.dist > cands[best].dist ||
					//lint:ignore floatcmp deterministic tie-break on exact equality; tolerance would make probe order basis-dependent
					(c.dist == cands[best].dist && c.v < cands[best].v) {
					best = i
				}
			}
			if best == -1 {
				break
			}
			c := &cands[best]
			c.tried = true
			probed++
			if pp == nil {
				ok := false
				if pp, ok = s.nodeProblem(nd); !ok {
					break // cannot happen: the node just solved feasible
				}
			}
			lo, hi := pp.Bounds(c.v)
			// Down probe: v <= floor(val).
			if math.Floor(c.val) < lo {
				c.downInf = true
			} else {
				pp.SetBounds(c.v, lo, math.Floor(c.val))
				obj, status, dualFeas := probeSolve(ws, pp, basis, probeOpts)
				pp.SetBounds(c.v, lo, hi)
				probes++
				switch {
				case status == lp.Infeasible:
					c.downInf = true
				case dualFeas:
					c.downObj = obj
					delta := math.Max(0, sol.Objective-obj) / c.dist
					chain = &pcObs{v: c.v, dir: 0, delta: delta, prev: chain}
					scr.dnSum[c.v] += delta
					scr.dnCnt[c.v]++
					totalSum += delta
					totalCnt++
				}
			}
			// Up probe: v >= ceil(val).
			if math.Ceil(c.val) > hi {
				c.upInf = true
			} else {
				pp.SetBounds(c.v, math.Ceil(c.val), hi)
				obj, status, dualFeas := probeSolve(ws, pp, basis, probeOpts)
				pp.SetBounds(c.v, lo, hi)
				probes++
				switch {
				case status == lp.Infeasible:
					c.upInf = true
				case dualFeas:
					c.upObj = obj
					delta := math.Max(0, sol.Objective-obj) / (1 - c.dist)
					chain = &pcObs{v: c.v, dir: 1, delta: delta, prev: chain}
					scr.upSum[c.v] += delta
					scr.upCnt[c.v]++
					totalSum += delta
					totalCnt++
				}
			}
			if c.downInf || c.upInf {
				// A dead direction beats any score: branching here either
				// prunes the node (both dead) or advances it for free (one
				// child, with the variable effectively fixed).
				break
			}
		}
	}
	if probes > 0 {
		s.mu.Lock()
		s.strongBranches += probes
		s.mu.Unlock()
	}

	// Score and select. With no observations anywhere the product rule is
	// flat, so fall back to pure fractionality.
	best := -1
	var bestScore float64
	for i := range cands {
		c := &cands[i]
		if c.downInf || c.upInf {
			best = i
			break
		}
		var score float64
		if totalCnt == 0 {
			score = c.dist
		} else {
			avg := totalSum / float64(totalCnt)
			dEst, uEst := avg, avg
			if scr.dnCnt[c.v] > 0 {
				dEst = scr.dnSum[c.v] / float64(scr.dnCnt[c.v])
			}
			if scr.upCnt[c.v] > 0 {
				uEst = scr.upSum[c.v] / float64(scr.upCnt[c.v])
			}
			score = math.Max(dEst*c.dist, pcEps) * math.Max(uEst*(1-c.dist), pcEps)
		}
		if best == -1 || score > bestScore {
			best, bestScore = i, score
		}
	}

	// Zero the scratch by walking the (extended) chain: every touched
	// accumulator entry was written through it.
	for o := chain; o != nil; o = o.prev {
		scr.dnSum[o.v], scr.dnCnt[o.v] = 0, 0
		scr.upSum[o.v], scr.upCnt[o.v] = 0, 0
	}

	c := &cands[best]
	pick := branchPick{
		v: c.v, val: c.val,
		downBound: math.Inf(1), upBound: math.Inf(1),
		downInfeas: c.downInf, upInfeas: c.upInf,
		pc: chain,
	}
	if !math.IsNaN(c.downObj) {
		pick.downBound = c.downObj
	}
	if !math.IsNaN(c.upObj) {
		pick.upBound = c.upObj
	}
	return pick
}

// probeSolve runs one bounded strong-branching probe: a non-publishing
// warm solve whose Solution aliases the workspace, so only the scalars
// survive the call. dualFeas reports that obj is a valid upper bound on
// the probed subtree (Optimal, or truncated inside the dual phase).
//
//lint:hotpath=bounded the probe solve itself reuses the worker workspace; only scalars are copied out
func probeSolve(ws *lp.Workspace, pp *lp.Problem, basis *lp.Basis, opts lp.Options) (obj float64, status lp.Status, dualFeas bool) {
	sol, err := ws.SolveFrom(pp, basis, opts)
	if err != nil {
		return 0, lp.IterLimit, false
	}
	return sol.Objective, sol.Status, sol.DualFeasible
}
