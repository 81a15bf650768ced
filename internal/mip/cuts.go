package mip

// Cutting planes for the branch-and-cut search, separated at the root
// (see the package comment). Three families, all derived from
// root-problem data only — so every cut is valid at every node of the
// tree:
//
//   - Cover cuts from knapsack rows: a <=-row whose binary items cannot
//     all be at their "heavy" value. Negative-coefficient binaries are
//     complemented (y'' = 1-y) and non-binary terms are shifted to the
//     right-hand side by their bounds, giving a pure binary knapsack
//     relaxation Σ w_j y''_j <= cap with w_j > 0. A cover C (Σ_C w > cap)
//     yields Σ_C y'' <= |C|-1, extended by every item at least as heavy
//     as the heaviest cover member.
//   - GUB cover cuts: when the knapsack's items belong to
//     one-of-a-group assignment rows (Σ_G y <= 1, the DSCT-EA
//     one-machine-per-task structure), a cover built from per-group
//     representatives lifts each representative to every group member at
//     least as heavy — stronger than the plain cover because the GUB row
//     caps each group's contribution at one.
//   - VUB strengthening cuts: a variable upper bound t <= U·x (the
//     DSCT-EA deadline links t_jr <= d_j·x_jr) with x binary is
//     strengthened to t <= u·x when t's own upper bound u < U — valid for
//     every integer point, violated by fractional x that the weaker link
//     admits.
//
// The separator detects this structure once, at root construction, from
// the LP rows themselves (builder hints via Problem.Structure seed the
// scan); singleton rows are folded into effective variable bounds first so
// row-encoded binaries (x <= 1 as a row, not a box) are recognised. The
// root loop then alternates separate → append → dual-simplex re-optimise
// (appended rows enter with their logical columns basic, so the warm
// re-solve is a few dual pivots), keeps the violation-ranked top slice per
// round, and before the dive drops every cut that ended up slack at the
// final root optimum.

import (
	"math"
	"sort"
	"time"

	"repro/internal/lp"
)

// Cut-layer tuning. The bounds are deliberately small: cuts pay off by
// shrinking the tree, and a handful of strong rows beats a dense pool that
// slows every node solve.
const (
	// cutTol is the minimum (scaled) violation for a cut to be emitted.
	cutTol = 1e-6
	// cutSlackTol: cuts with more slack than this at the final root
	// optimum are dropped before the dive.
	cutSlackTol = 1e-7
	// cutMaxRounds caps root separate→re-optimise rounds.
	cutMaxRounds = 8
	// cutsPerRound caps the violation-ranked cuts appended per root round.
	cutsPerRound = 32
	// cutStallTol: relative root-bound improvement below which the loop
	// stops (tailing off).
	cutStallTol = 1e-9
	// maxPlunge bounds how many consecutive children a worker dives onto
	// before returning to the global best-bound queue.
	maxPlunge = 8
)

// cut is one valid inequality terms·x <= rhs.
type cut struct {
	terms []lp.Term
	rhs   float64
}

// knapRow is a pure binary knapsack relaxation of one constraint row:
// Σ w_i · y”_i <= cap over complemented binaries (y” = 1-y when comp),
// with every w_i > 0 and non-binary terms already shifted into cap.
type knapRow struct {
	vars []int
	w    []float64
	comp []bool
	cap  float64
	// pure marks rows with no complemented item: only those admit the GUB
	// cover argument (a complemented item inverts what "chosen" means, so
	// the one-per-group cap no longer bounds the complemented sum).
	pure bool
}

// separator holds the structure detected at root construction. Detection
// fields are immutable after newSeparator returns; separate() keeps its
// scratch local.
type separator struct {
	nVars  int
	binary []bool // integer variable with effective box inside [0,1]
	gubOf  []int  // variable -> GUB group id, -1 when ungrouped
	knaps  []knapRow
	vubs   []VUB // strengthened links: emit Cont - U·Bin <= 0 (U already tightened)
}

// newSeparator scans p's rows for the three cut families. hint, when
// non-nil, names builder-known budget/GUB/VUB rows which are processed
// first; the generic scan then covers everything else, so hints never
// reduce what is found. integers indexes p's integer variables.
func newSeparator(p *lp.Problem, integers []int, hint *Structure) *separator {
	n := p.NumVars()
	m := p.NumConstraints()
	s := &separator{nVars: n}
	isInt := make([]bool, n)
	for _, v := range integers {
		isInt[v] = true
	}

	// Accumulate every row into distinct-variable form once (AddConstraint
	// permits repeated variables) and fold singleton rows into effective
	// variable bounds, so binaries encoded as x <= 1 rows are recognised
	// and non-binary knapsack terms shift by their tightest known bounds.
	effLo := make([]float64, n)
	effHi := make([]float64, n)
	for v := 0; v < n; v++ {
		effLo[v], effHi[v] = p.Bounds(v)
	}
	rowVars := make([][]int, m)
	rowCoefs := make([][]float64, m)
	rowSense := make([]lp.Sense, m)
	rowRhs := make([]float64, m)
	acc := make([]float64, n)
	seen := make([]bool, n)
	for i := 0; i < m; i++ {
		terms, sense, rhs := p.Constraint(i)
		vars := make([]int, 0, len(terms))
		for _, t := range terms {
			if !seen[t.Var] {
				seen[t.Var] = true
				vars = append(vars, t.Var)
			}
			acc[t.Var] += t.Coef
		}
		coefs := make([]float64, 0, len(vars))
		kept := vars[:0]
		for _, v := range vars {
			c := acc[v]
			acc[v] = 0
			seen[v] = false
			if c != 0 {
				kept = append(kept, v)
				coefs = append(coefs, c)
			}
		}
		rowVars[i], rowCoefs[i], rowSense[i], rowRhs[i] = kept, coefs, sense, rhs
		if len(kept) == 1 {
			v, c := kept[0], coefs[0]
			lo, hi := rhs/c, rhs/c
			switch sense {
			case lp.LE:
				if c > 0 {
					effHi[v] = math.Min(effHi[v], hi)
				} else {
					effLo[v] = math.Max(effLo[v], lo)
				}
			case lp.GE:
				if c > 0 {
					effLo[v] = math.Max(effLo[v], lo)
				} else {
					effHi[v] = math.Min(effHi[v], hi)
				}
			case lp.EQ:
				effLo[v] = math.Max(effLo[v], lo)
				effHi[v] = math.Min(effHi[v], hi)
			}
		}
	}
	s.binary = make([]bool, n)
	for v := 0; v < n; v++ {
		s.binary[v] = isInt[v] && effLo[v] >= -intTol && effHi[v] <= 1+intTol
	}

	// GUB groups: rows Σ c·x {<=,=} c over >= 2 binaries with one shared
	// positive coefficient (the ratio form survives the presolver's
	// power-of-two row scaling). Builder-hinted rows first, then the scan;
	// each variable joins at most one group.
	s.gubOf = make([]int, n)
	for v := range s.gubOf {
		s.gubOf[v] = -1
	}
	consumed := make([]bool, m)
	gubRow := func(i int) {
		if i < 0 || i >= m || consumed[i] {
			return
		}
		vars, coefs := rowVars[i], rowCoefs[i]
		if len(vars) < 2 || rowSense[i] == lp.GE {
			return
		}
		c := coefs[0]
		if c <= 0 || math.Abs(rowRhs[i]-c) > 1e-9*math.Max(1, c) {
			return
		}
		for k, v := range vars {
			if !s.binary[v] || math.Abs(coefs[k]-c) > 1e-9*c {
				return
			}
		}
		gid := -1
		for _, v := range vars {
			if s.gubOf[v] == -1 {
				if gid == -1 {
					gid = i // group ids only need to be distinct; the row index is
				}
				s.gubOf[v] = gid
			}
		}
		consumed[i] = true
	}
	if hint != nil {
		for _, i := range hint.GUBRows {
			gubRow(i)
		}
	}
	for i := 0; i < m; i++ {
		gubRow(i)
	}

	// Knapsack relaxations: any remaining multi-variable row normalised to
	// <= (GE rows negate; EQ rows contribute their <= half), binaries kept
	// as complemented items, everything else shifted into the capacity by
	// its effective bounds. Rows whose shift is unbounded, with fewer than
	// two items, or whose items cannot overflow the capacity are useless
	// and skipped — notably the DSCT-EA energy row, whose terms are all
	// continuous, never yields a cover.
	knapRowFrom := func(i int) {
		if i < 0 || i >= m || consumed[i] {
			return
		}
		vars, coefs := rowVars[i], rowCoefs[i]
		if len(vars) < 2 {
			return
		}
		sign := 1.0
		if rowSense[i] == lp.GE {
			sign = -1
		}
		cap := sign * rowRhs[i]
		kr := knapRow{pure: true}
		for k, v := range vars {
			c := sign * coefs[k]
			if s.binary[v] {
				if c > 0 {
					kr.vars = append(kr.vars, v)
					kr.w = append(kr.w, c)
					kr.comp = append(kr.comp, false)
				} else {
					// c·y = c - c·(1-y): complement and move c to the rhs.
					kr.vars = append(kr.vars, v)
					kr.w = append(kr.w, -c)
					kr.comp = append(kr.comp, true)
					kr.pure = false
					cap -= c
				}
				continue
			}
			shift := math.Min(c*effLo[v], c*effHi[v])
			if math.IsInf(shift, -1) {
				return // unbounded term: no valid binary relaxation
			}
			cap -= shift
		}
		if len(kr.vars) < 2 || math.IsInf(cap, 1) || math.IsNaN(cap) {
			return
		}
		var sumW float64
		for _, w := range kr.w {
			sumW += w
		}
		if sumW <= cap+1e-9 {
			return // no cover can exist
		}
		kr.cap = cap
		s.knaps = append(s.knaps, kr)
		consumed[i] = true
	}
	if hint != nil {
		for _, i := range hint.BudgetRows {
			knapRowFrom(i)
		}
	}
	for i := 0; i < m; i++ {
		if rowSense[i] != lp.EQ { // EQ rows are rarely knapsacks; GUBs already taken
			knapRowFrom(i)
		}
	}

	// VUB strengthening candidates: hinted links first, then two-term rows
	// a·t - b·x <= 0 (a,b > 0, x binary, t not). Strengthen U = b/a down to
	// t's effective upper bound when that is strictly tighter.
	haveVUB := make(map[int]bool, 16) // membership only; never iterated
	addVUB := func(cont, bin int, u float64) {
		if cont < 0 || cont >= n || bin < 0 || bin >= n || !s.binary[bin] || s.binary[cont] {
			return
		}
		uNew := effHi[cont]
		if math.IsInf(uNew, 1) || uNew < 0 || uNew >= u*(1-1e-9) {
			return
		}
		key := cont*n + bin
		if haveVUB[key] {
			return
		}
		haveVUB[key] = true
		s.vubs = append(s.vubs, VUB{Cont: cont, Bin: bin, U: uNew})
	}
	if hint != nil {
		for _, vb := range hint.VUBs {
			addVUB(vb.Cont, vb.Bin, vb.U)
		}
	}
	for i := 0; i < m; i++ {
		vars, coefs := rowVars[i], rowCoefs[i]
		if len(vars) != 2 || rowSense[i] == lp.EQ {
			continue
		}
		sign := 1.0
		if rowSense[i] == lp.GE {
			sign = -1
		}
		if math.Abs(rowRhs[i]) > 1e-9 {
			continue
		}
		a0, a1 := sign*coefs[0], sign*coefs[1]
		if a0 > 0 && a1 < 0 {
			addVUB(vars[0], vars[1], -a1/a0)
		} else if a1 > 0 && a0 < 0 {
			addVUB(vars[1], vars[0], -a0/a1)
		}
	}
	return s
}

// separate returns up to maxCuts inequalities violated at x, ranked by
// violation (ties keep generation order, which is deterministic). The
// detection structures are read-only; all scratch is call-local.
//
//lint:hotpath=bounded one separation round allocates its candidate and ordering scratch; it runs once per root cut round, never per node
func (s *separator) separate(x []float64, maxCuts int) []cut {
	type scored struct {
		c    cut
		viol float64
	}
	var cands []scored

	for _, vb := range s.vubs {
		viol := x[vb.Cont] - vb.U*x[vb.Bin]
		if viol > cutTol*(1+math.Abs(vb.U)) {
			cands = append(cands, scored{
				c:    cut{terms: []lp.Term{{Var: vb.Cont, Coef: 1}, {Var: vb.Bin, Coef: -vb.U}}, rhs: 0},
				viol: viol,
			})
		}
	}

	for ki := range s.knaps {
		kr := &s.knaps[ki]
		yv := make([]float64, len(kr.vars))
		ord := make([]int, len(kr.vars))
		for i, v := range kr.vars {
			val := x[v]
			if kr.comp[i] {
				val = 1 - val
			}
			yv[i] = math.Min(1, math.Max(0, val))
			ord[i] = i
		}
		// Greedy cover by decreasing complemented value: maximises the cut's
		// left-hand side at x, i.e. the violation of the cover found.
		//lint:ignore hotalloc the comparator closure is part of the per-round scratch the bounded budget covers
		sort.Slice(ord, func(a, b int) bool {
			ia, ib := ord[a], ord[b]
			//lint:ignore floatcmp comparator tie-break: tolerant comparison would break the strict weak ordering sort requires
			if yv[ia] != yv[ib] {
				return yv[ia] > yv[ib]
			}
			return ia < ib
		})
		if c := coverCut(kr, yv, ord); c.viol > cutTol {
			cands = append(cands, scored{c: c.c, viol: c.viol})
		}
		if kr.pure {
			if c := gubCoverCut(kr, s.gubOf, yv); c.viol > cutTol {
				cands = append(cands, scored{c: c.c, viol: c.viol})
			}
		}
	}

	if len(cands) == 0 {
		return nil
	}
	//lint:ignore hotalloc the ranking closure is part of the per-round scratch the bounded budget covers
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].viol > cands[j].viol })
	if len(cands) > maxCuts {
		cands = cands[:maxCuts]
	}
	out := make([]cut, len(cands))
	for i := range cands {
		out[i] = cands[i].c
	}
	return out
}

// coverCut builds the extended cover cut for one knapsack row, greedy over
// ord (items by decreasing y”). Returns viol <= 0 when no cover exists or
// the cut is satisfied at the current point.
func coverCut(kr *knapRow, yv []float64, ord []int) (res struct {
	c    cut
	viol float64
}) {
	var wsum, wmax float64
	cover := 0
	inCover := make([]bool, len(kr.vars))
	for _, i := range ord {
		inCover[i] = true
		cover++
		wsum += kr.w[i]
		if kr.w[i] > wmax {
			wmax = kr.w[i]
		}
		if wsum > kr.cap+1e-9 {
			break
		}
	}
	if wsum <= kr.cap+1e-9 {
		return // all items fit: no cover
	}
	// Extension: every item at least as heavy as the heaviest cover member
	// joins with coefficient 1 (the extended cover inequality).
	rhs := float64(cover - 1)
	var lhs float64
	terms := make([]lp.Term, 0, len(kr.vars))
	for i, v := range kr.vars {
		if !inCover[i] && kr.w[i] < wmax-1e-12 {
			continue
		}
		lhs += yv[i]
		if kr.comp[i] {
			terms = append(terms, lp.Term{Var: v, Coef: -1})
			rhs -= 1
		} else {
			terms = append(terms, lp.Term{Var: v, Coef: 1})
		}
	}
	res.viol = lhs - float64(cover-1)
	res.c = cut{terms: terms, rhs: rhs}
	return
}

// gubCoverCut builds a GUB cover cut for a pure knapsack row whose items
// sit in one-per-group assignment rows: pick one representative per group
// (highest y”, breaking ties to the lowest item index), greedily cover
// the capacity with representatives, and lift each representative to every
// same-group item at least as heavy. Validity: if the cut's left-hand side
// reached the cover size, every representative's group would contribute a
// full unit at least as heavy as its representative, overflowing the
// capacity. Returns viol <= 0 when no such cover exists.
func gubCoverCut(kr *knapRow, gubOf []int, yv []float64) (res struct {
	c    cut
	viol float64
}) {
	nItems := len(kr.vars)
	// Group slots in first-encounter order (deterministic); singleton
	// groups for ungrouped items.
	slotOf := make(map[int]int, nItems) // group id -> slot; membership only, never iterated
	reps := make([]int, 0, nItems)      // slot -> representative item
	for i, v := range kr.vars {
		g := gubOf[v]
		if g == -1 {
			reps = append(reps, i) // its own group
			continue
		}
		if s, ok := slotOf[g]; ok {
			if yv[i] > yv[reps[s]] {
				reps[s] = i
			}
			continue
		}
		slotOf[g] = len(reps)
		reps = append(reps, i)
	}
	if len(reps) < 2 || len(slotOf) == 0 {
		return // no grouped item: the GUB cover degenerates to a plain cover
	}
	ord := make([]int, len(reps))
	for i := range ord {
		ord[i] = i
	}
	sort.Slice(ord, func(a, b int) bool {
		ia, ib := reps[ord[a]], reps[ord[b]]
		//lint:ignore floatcmp comparator tie-break: tolerant comparison would break the strict weak ordering sort requires
		if yv[ia] != yv[ib] {
			return yv[ia] > yv[ib]
		}
		return ia < ib
	})
	var wsum float64
	cover := 0
	chosen := make([]int, 0, len(reps)) // representative items in the cover
	for _, s := range ord {
		i := reps[s]
		chosen = append(chosen, i)
		cover++
		wsum += kr.w[i]
		if wsum > kr.cap+1e-9 {
			break
		}
	}
	if wsum <= kr.cap+1e-9 {
		return
	}
	// Lift: representative i brings every item of its group (within this
	// row) whose weight is >= w_i. Groups are disjoint, so no item repeats.
	terms := make([]lp.Term, 0, nItems)
	var lhs float64
	for _, i := range chosen {
		gi := gubOf[kr.vars[i]]
		if gi == -1 {
			terms = append(terms, lp.Term{Var: kr.vars[i], Coef: 1})
			lhs += yv[i]
			continue
		}
		for j, v := range kr.vars {
			if gubOf[v] == gi && kr.w[j] >= kr.w[i]-1e-12 {
				terms = append(terms, lp.Term{Var: v, Coef: 1})
				lhs += yv[j]
			}
		}
	}
	res.viol = lhs - float64(cover-1)
	res.c = cut{terms: terms, rhs: float64(cover - 1)}
	return
}

// rootCuts solves the root relaxation and runs the root cutting loop on
// the searcher's (possibly presolved, possibly warm-imported) problem:
// solve the root — warm from the imported root basis when one was adopted
// — and while the solution is fractional on Problem.Integers, separate,
// append the violated top slice and warm re-optimise with the dual
// simplex, until no violated cut is found, the bound stops moving, or the
// round budget is spent. The separator is built from hint and the root
// rows the first time a root solution is fractional, so an integral root
// never builds one. Slack cuts (imported and fresh alike) are then dropped
// and s.prob is rebuilt as an overlay of the pre-cut base LP carrying the
// surviving pool, which every node relaxation inherits; the final root
// basis is adapted to that kept-row layout and seeds the root node.
//
// When the last solve was optimal, no cut joined the rows after it and
// the root keeps no cut row, that solution stays optimal for the rebuilt
// root — a slack cut has a zero dual — and becomes the root node's
// relaxation (s.rootSol). Otherwise (a solve failed, a limit struck, the
// last cuts made the relaxation infeasible, or cuts were kept) the root
// node solves its relaxation itself, warm from the adapted basis in warm
// mode and cold outside it. Any solver trouble abandons the fresh cuts —
// the search then runs on the pre-loop root (imported pool included),
// never on a half-built one. ws is the caller's pre-search workspace.
func (s *searcher) rootCuts(hint *Structure, ws *lp.Workspace) {
	lpOpts := s.opts.LP
	lpOpts.Deadline = s.opts.Deadline
	work := s.prob.LP.Overlay()
	var sol *lp.Solution
	var basis *lp.Basis
	var err error
	warm := s.rootFrom != nil && !s.opts.DisableWarmStart
	switch {
	case warm:
		sol, basis, err = ws.SolveBasisFrom(work, s.rootFrom, lpOpts)
		if err != nil {
			warm = false
			sol, basis, err = ws.SolveBasis(work, lpOpts)
		}
	case s.opts.DisableWarmStart:
		// Basis-free, like every node solve under DisableWarmStart. The
		// Solution aliases ws's output buffers, which only another
		// basis-free solve overwrites: the loop's re-solves publish their
		// own, and the root node is done with it before ws solves again.
		sol, err = ws.Solve(work, lpOpts)
	default:
		sol, basis, err = ws.SolveBasis(work, lpOpts)
	}
	if err != nil || sol.Status != lp.Optimal {
		return
	}
	imported := s.pool
	var fresh []cut
	var sep *separator
	adopt := true // sol is optimal for work's current rows
	prevObj := sol.Objective
	for round := 0; round < cutMaxRounds; round++ {
		//lint:ignore wallclock sanctioned deadline probe, once per root cutting round
		if !s.opts.Deadline.IsZero() && time.Now().After(s.opts.Deadline) {
			break
		}
		if integralOn(s.prob.Integers, sol.X) {
			break
		}
		if sep == nil {
			sep = newSeparator(s.prob.LP, s.prob.Integers, hint)
		}
		found := sep.separate(sol.X, cutsPerRound)
		if len(found) == 0 {
			break
		}
		for _, c := range found {
			work.AddConstraint(c.terms, lp.LE, c.rhs)
		}
		fresh = append(fresh, found...)
		s.cutRounds++
		var nsol *lp.Solution
		var nbasis *lp.Basis
		var nerr error
		nwarm := !s.opts.DisableWarmStart && basis != nil
		if nwarm {
			nsol, nbasis, nerr = ws.SolveBasisFrom(work, basis, lpOpts)
			if nerr != nil {
				nwarm = false
				nsol, nbasis, nerr = ws.SolveBasis(work, lpOpts)
			}
		} else {
			nsol, nbasis, nerr = ws.SolveBasis(work, lpOpts)
		}
		if nerr != nil {
			// Abandon the fresh cuts; the imported pool (already part of
			// s.prob) stays, but the loop's basis describes rows the search
			// will not carry, so the root node starts cold.
			s.rootFrom = nil
			return
		}
		if nsol.Status == lp.Infeasible {
			// The cuts are valid for every integer point, so an infeasible
			// cut LP proves integer infeasibility: keep the pool and let
			// the root node discover it.
			sol, basis, adopt = nsol, nil, false
			break
		}
		if nsol.Status != lp.Optimal {
			adopt = false
			break // limit struck: stop cutting, keep what is proven valid
		}
		sol, basis, warm = nsol, nbasis, nwarm
		if prevObj-sol.Objective <= cutStallTol*(1+math.Abs(prevObj)) {
			break // tailing off
		}
		prevObj = sol.Objective
	}
	combined := imported
	if len(fresh) > 0 {
		combined = append(append(make([]cut, 0, len(imported)+len(fresh)), imported...), fresh...)
	}
	// Drop cuts that ended up slack at the final root optimum: they did
	// their work guiding the loop but would only burden every node solve.
	keep := make([]bool, len(combined))
	nKept := 0
	for k, c := range combined {
		if sol.X != nil {
			var act float64
			for _, t := range c.terms {
				act += t.Coef * sol.X[t.Var]
			}
			if act < c.rhs-cutSlackTol*(1+math.Abs(c.rhs)) {
				continue
			}
		}
		keep[k] = true
		nKept++
	}
	// With kept cuts the root node still solves its rebuilt relaxation:
	// adopting the loop's point there too moved search trees (DESIGN §4).
	adopt = adopt && nKept == 0
	if adopt {
		s.rootSol, s.rootWarm = sol, warm
	}
	// Under DisableWarmStart the root publishes no basis, as a basis-free
	// root solve would not; outside warm mode a root that solves again
	// solves cold.
	if s.opts.DisableWarmStart || !adopt && !s.warmMode {
		basis = nil
	}
	if len(combined) == 0 {
		s.rootFrom = basis // cut-free layout: directly adoptable
		return
	}
	if nKept > 0 || s.warmMode {
		kept := make([]cut, 0, nKept)
		aug := s.baseLP.Overlay()
		for k, c := range combined {
			if keep[k] {
				kept = append(kept, c)
				aug.AddConstraint(c.terms, lp.LE, c.rhs)
			}
		}
		s.prob = &Problem{LP: aug, Integers: s.prob.Integers, Structure: s.prob.Structure}
		s.pool = kept
		s.cutsKept = len(kept)
	} // else nothing to carry and s.prob already is the base LP
	s.rootFrom = nil
	if basis != nil {
		// The loop's final basis describes [0, baseRows) plus the cut rows
		// present at its last successful solve; route the kept ones to their
		// positions in the rebuilt layout and drop the rest.
		rowMap := make([]int, basis.NumRows())
		pos := make([]int, len(combined))
		p := s.baseRows
		for k := range combined {
			if keep[k] {
				pos[k] = p
				p++
			} else {
				pos[k] = -1
			}
		}
		for i := range rowMap {
			switch {
			case i < s.baseRows:
				rowMap[i] = i
			case i-s.baseRows < len(combined):
				rowMap[i] = pos[i-s.baseRows]
			default:
				rowMap[i] = -1
			}
		}
		s.rootFrom = basis.AdaptRows(rowMap, s.baseRows+nKept)
	}
}
