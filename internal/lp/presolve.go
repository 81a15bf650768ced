package lp

// Presolve/postsolve layer. Before a cold solve reaches a simplex core,
// presolve shrinks the problem with the classic reductions — empty and
// singleton rows, fixed and empty columns, activity-based bound
// tightening — and conditions what remains with geometric-mean scaling.
// Each reduction pushes one record onto an undo stack; postsolve replays
// the stack in reverse to reconstruct the full solution vector, the full
// dual vector and (for the revised core) a warm-start Basis of the
// original problem, so callers cannot tell a presolved solve from a
// direct one except by speed.
//
// The reductions, in fixpoint rotation until none fires:
//
//   - Empty row: a row with no surviving nonzeros is a pure feasibility
//     check of its (substituted) right-hand side — infeasible or gone.
//     Its dual is 0.
//   - Singleton row: a·x_v {sense} b over one surviving column is a
//     bound: b/a tightens x_v's box (both sides for EQ) and the row is
//     dropped. Postsolve recovers the row's dual from the residual
//     reduced cost of column v (see postsolveDuals).
//   - Fixed column: hi == lo pins x_v; its contribution moves into every
//     row's right-hand side and the objective offset. (Branch-and-bound
//     children pin binaries exactly like this, which is why the root
//     presolve keeps the integer columns out of the reductions.)
//   - Empty column: a column with no surviving rows moves to whichever
//     working bound the objective prefers — skipped when that bound is
//     infinite, leaving the unbounded direction for the core to detect.
//   - Bound tightening: per-row activity bounds prove infeasibility or
//     imply tighter boxes. Implied bounds are only installed when the
//     caller does not want duals: a variable resting on an implied bound
//     absorbs reduced cost that belongs to the implying row's dual,
//     which postsolve does not untangle. The infeasibility probe runs
//     either way.
//
// Scaling runs last, over the surviving submatrix: two rounds of
// geometric-mean equilibration with every scale rounded to a power of
// two, so postsolve's unscaling multiplications are exact and the solve
// is perturbed only through pivot choices, never through the values a
// round-trip reconstructs. Kept (integer) columns are never rescaled so
// branching bounds keep their meaning.
//
// SolveFrom never presolves: a warm-start Basis indexes the original
// rows, and branch-and-bound warm chains stay coherent by presolving
// once at the root (RootPresolve) and searching entirely in the reduced
// space.

import "math"

const (
	// presolveAutoRows is the constraint-row count at which PresolveAuto
	// switches the layer on: the scale where shrinking the basis pays for
	// the reduction pass. Smaller problems solve bit-identically to
	// PresolveOff.
	presolveAutoRows = 2048
	// presolveMaxPasses caps the reduction fixpoint rotations.
	presolveMaxPasses = 10
	// presolveTol is the feasibility tolerance of the reductions, scaled
	// by scaleOf of the quantity under test (the simplex core's feasTol).
	presolveTol = feasTol
)

// resolvePresolve maps a PresolveMode to a concrete on/off decision for a
// problem with m constraint rows.
func resolvePresolve(mode PresolveMode, m int) bool {
	switch mode {
	case PresolveOn:
		return true
	case PresolveOff:
		return false
	}
	return m >= presolveAutoRows
}

// Reduction kinds on the undo stack.
type presolveAction uint8

const (
	presolveFixedCol presolveAction = iota
	presolveEmptyCol
	presolveSingletonRow
)

// presolveRec is one undo record. Fields are per-action: fixed/empty
// columns store the resting value (and, for empty columns, whether that
// is the upper bound); singleton rows store the row, its surviving
// column and coefficient, and the original sense for the dual recovery.
type presolveRec struct {
	action  presolveAction
	row     int
	col     int
	coef    float64
	sense   Sense
	val     float64
	atUpper bool
}

// presolved is the outcome of a presolve: a decided status, or a reduced
// problem plus the undo program, or a fallback directive for the corner
// shapes the layer does not model (no surviving rows but surviving
// columns with an unbounded best bound).
type presolved struct {
	orig   *Problem
	status Status // Optimal: reduced ready (or fully decided); or Infeasible
	// fallback directs the caller to solve the original problem
	// unreduced.
	fallback bool

	reduced *Problem // nil when the reductions decided every variable
	n, m    int      // original dimensions

	cols   []int // reduced column -> original column
	rows   []int // reduced row -> original row
	colMap []int // original column -> reduced column (-1: eliminated)
	rowMap []int // original row -> reduced row (-1: eliminated)

	// Power-of-two scale factors by original index (nil: unscaled).
	// Reduced data is a' = r·a·s, b' = r·b, c' = c·s, lo' = lo/s,
	// hi' = hi/s; postsolve maps x = s·x', y = r·y'. The objective value
	// is invariant.
	colScale []float64
	rowScale []float64

	undo   []presolveRec
	objOff float64 // objective contribution of the eliminated columns
}

// reducer is the working state of the reduction fixpoint: the original
// rows in compressed form with both orientations, alive masks, working
// right-hand sides (fixed-column substitutions folded in) and working
// boxes (singleton-row implications, plus activity tightenings when the
// caller does not need duals).
type reducer struct {
	p         *Problem
	n, m      int
	needDuals bool

	sr     *sparseRows
	colPtr []int
	colRow []int
	colVal []float64

	rhs    []float64
	lo, hi []float64
	obj    []float64 // read-only view of p's objective

	rowAlive []bool
	colAlive []bool
	rowNnz   []int // surviving nonzeros per row
	colNnz   []int // surviving nonzeros per column
	keep     []bool

	undo       []presolveRec
	objOff     float64
	infeasible bool

	// Persistent backing for reuse across init calls on the same reducer
	// (a Workspace keeps one): the compressed-row storage sr points into,
	// the flattener scratch and the transpose cursor.
	srStore sparseRows
	ds      dedupScratch
	colNext []int
}

// presolveProblem runs the reductions on p with a fresh reducer. keepCols
// lists columns that must survive untouched by eliminations and scaling
// (branch-and-bound integers). needDuals gates the bound-tightening
// installs as described in the file comment.
//
// The fresh reducer matters: the returned presolved aliases the reducer's
// undo stack, and this path's callers (RootPresolve in particular) may
// hold it indefinitely. Reducer-reusing callers go through presolveInto
// and own the consume-before-next-solve discipline.
func presolveProblem(p *Problem, keepCols []int, needDuals bool) *presolved {
	var rd reducer
	return presolveInto(&rd, p, keepCols, needDuals)
}

// presolveInto runs the reductions on p using rd's storage. The returned
// presolved aliases rd's undo stack and must be consumed before rd is
// reused.
func presolveInto(rd *reducer, p *Problem, keepCols []int, needDuals bool) *presolved {
	n, m := p.nVars, p.NumConstraints()
	ps := &presolved{orig: p, status: Optimal, n: n, m: m}
	if m == 0 {
		ps.fallback = true
		return ps
	}

	rd.init(p, keepCols, needDuals)
	rd.run()
	if rd.infeasible {
		ps.status = Infeasible
		return ps
	}
	ps.undo = rd.undo
	ps.objOff = rd.objOff

	ps.colMap = make([]int, n)
	for j := 0; j < n; j++ {
		if rd.colAlive[j] {
			ps.colMap[j] = len(ps.cols)
			ps.cols = append(ps.cols, j)
		} else {
			ps.colMap[j] = -1
		}
	}
	ps.rowMap = make([]int, m)
	for i := 0; i < m; i++ {
		if rd.rowAlive[i] {
			ps.rowMap[i] = len(ps.rows)
			ps.rows = append(ps.rows, i)
		} else {
			ps.rowMap[i] = -1
		}
	}

	if len(ps.rows) == 0 {
		if len(ps.cols) == 0 {
			return ps // every variable decided; direct solution
		}
		// Rows all gone but box-only columns remain (an empty column kept
		// alive by an infinite best bound, or a kept integer): the layer
		// does not model a row-less core problem.
		ps.fallback = true
		return ps
	}

	rd.computeScaling(ps)
	ps.reduced = rd.buildReduced(ps)
	return ps
}

// init (re)builds the reducer's working state for p, reusing its storage
// (grown/taken everywhere), so a recycled reducer reaches zero
// steady-state allocations. The undo stack is truncated, not freed — the
// previous solve's presolved must already have been consumed.
func (rd *reducer) init(p *Problem, keepCols []int, needDuals bool) {
	n, m := p.nVars, p.NumConstraints()
	rd.p = p
	rd.n, rd.m = n, m
	rd.needDuals = needDuals
	rd.sr = rd.ds.flatten(p, &rd.srStore)
	rd.obj = p.obj
	rd.rhs = taken(rd.rhs, rd.sr.rhs)
	rd.lo = grown(rd.lo, n)
	rd.hi = grown(rd.hi, n)
	rd.rowAlive = grown(rd.rowAlive, m)
	rd.colAlive = grown(rd.colAlive, n)
	rd.rowNnz = grown(rd.rowNnz, m)
	rd.colNnz = grown(rd.colNnz, n)
	rd.keep = grown(rd.keep, n)
	rd.undo = rd.undo[:0]
	rd.objOff = 0
	rd.infeasible = false
	for v := 0; v < n; v++ {
		rd.lo[v], rd.hi[v] = p.boundsAt(v)
		rd.colAlive[v] = true
	}
	for i := 0; i < m; i++ {
		rd.rowAlive[i] = true
		rd.rowNnz[i] = rd.sr.ptr[i+1] - rd.sr.ptr[i]
	}
	// Counting transpose of the deduped rows: the column view fixed-column
	// elimination walks.
	rd.colPtr = grown(rd.colPtr, n+1)
	for _, j := range rd.sr.idx {
		rd.colPtr[j+1]++
	}
	for j := 0; j < n; j++ {
		rd.colPtr[j+1] += rd.colPtr[j]
		rd.colNnz[j] = rd.colPtr[j+1] - rd.colPtr[j]
	}
	rd.colRow = grown(rd.colRow, len(rd.sr.idx))
	rd.colVal = grown(rd.colVal, len(rd.sr.idx))
	rd.colNext = grown(rd.colNext, n)
	next := rd.colNext
	copy(next, rd.colPtr[:n])
	for i := 0; i < m; i++ {
		for k := rd.sr.ptr[i]; k < rd.sr.ptr[i+1]; k++ {
			j := rd.sr.idx[k]
			rd.colRow[next[j]] = i
			rd.colVal[next[j]] = rd.sr.val[k]
			next[j]++
		}
	}
	for _, v := range keepCols {
		rd.keep[v] = true
	}
}

// run rotates the reduction passes to a fixpoint (or the pass cap).
func (rd *reducer) run() {
	for pass := 0; pass < presolveMaxPasses; pass++ {
		changed := false
		for i := 0; i < rd.m && !rd.infeasible; i++ {
			if !rd.rowAlive[i] {
				continue
			}
			switch rd.rowNnz[i] {
			case 0:
				rd.elimEmptyRow(i)
				changed = true
			case 1:
				rd.elimSingletonRow(i)
				changed = true
			}
		}
		if rd.infeasible {
			return
		}
		for j := 0; j < rd.n && !rd.infeasible; j++ {
			if !rd.colAlive[j] || rd.keep[j] {
				continue
			}
			switch {
			case rd.hi[j] <= rd.lo[j]:
				rd.elimFixedCol(j)
				changed = true
			case rd.colNnz[j] == 0:
				if rd.elimEmptyCol(j) {
					changed = true
				}
			}
		}
		if rd.infeasible {
			return
		}
		if rd.tighten() {
			changed = true
		}
		if rd.infeasible || !changed {
			return
		}
	}
}

// dropRow retires row i and updates the surviving-nonzero column counts.
func (rd *reducer) dropRow(i int) {
	rd.rowAlive[i] = false
	for k := rd.sr.ptr[i]; k < rd.sr.ptr[i+1]; k++ {
		if j := rd.sr.idx[k]; rd.colAlive[j] {
			rd.colNnz[j]--
		}
	}
}

// elimEmptyRow feasibility-checks 0 {sense} rhs and drops the row. All
// columns the row ever touched were eliminated as fixed (an alive column
// with a nonzero entry would keep the count positive), so the working
// right-hand side carries their exact substitutions.
func (rd *reducer) elimEmptyRow(i int) {
	b := rd.rhs[i]
	tol := presolveTol * scaleOf(b)
	switch rd.sr.sense[i] {
	case LE:
		if b < -tol {
			rd.infeasible = true
			return
		}
	case GE:
		if b > tol {
			rd.infeasible = true
			return
		}
	case EQ:
		if math.Abs(b) > tol {
			rd.infeasible = true
			return
		}
	}
	rd.dropRow(i)
}

// elimSingletonRow turns a one-column row a·x_v {sense} b into the bound
// b/a on x_v and drops the row, recording it for dual recovery.
func (rd *reducer) elimSingletonRow(i int) {
	var v int
	var a float64
	for k := rd.sr.ptr[i]; k < rd.sr.ptr[i+1]; k++ {
		if j := rd.sr.idx[k]; rd.colAlive[j] {
			v, a = j, rd.sr.val[k]
			break
		}
	}
	b := rd.rhs[i]
	bound := b / a
	sense := rd.sr.sense[i]
	switch {
	case sense == EQ:
		tol := presolveTol * scaleOf(bound)
		if bound < rd.lo[v]-tol || bound > rd.hi[v]+tol {
			rd.infeasible = true
			return
		}
		bound = math.Max(rd.lo[v], math.Min(rd.hi[v], bound))
		rd.lo[v], rd.hi[v] = bound, bound
	case (sense == LE) == (a > 0):
		rd.clampHi(v, bound)
	default:
		rd.clampLo(v, bound)
	}
	if rd.infeasible {
		return
	}
	rd.undo = append(rd.undo, presolveRec{
		action: presolveSingletonRow, row: i, col: v, coef: a, sense: sense,
	})
	rd.dropRow(i)
}

// clampHi tightens x_v's upper bound to nh if that improves it, snapping
// a box emptied within tolerance and flagging one emptied beyond it.
func (rd *reducer) clampHi(v int, nh float64) {
	if nh >= rd.hi[v] {
		return
	}
	rd.hi[v] = nh
	if rd.hi[v] < rd.lo[v] {
		if rd.hi[v] < rd.lo[v]-presolveTol*scaleOf(rd.lo[v]) {
			rd.infeasible = true
			return
		}
		rd.hi[v] = rd.lo[v]
	}
}

// clampLo is clampHi's mirror for the lower bound.
func (rd *reducer) clampLo(v int, nl float64) {
	if nl <= rd.lo[v] {
		return
	}
	rd.lo[v] = nl
	if rd.lo[v] > rd.hi[v] {
		if rd.lo[v] > rd.hi[v]+presolveTol*scaleOf(rd.hi[v]) {
			rd.infeasible = true
			return
		}
		rd.lo[v] = rd.hi[v]
	}
}

// elimFixedCol substitutes the pinned x_v into every surviving row's
// right-hand side and the objective offset, then retires the column.
func (rd *reducer) elimFixedCol(v int) {
	val := rd.lo[v]
	for k := rd.colPtr[v]; k < rd.colPtr[v+1]; k++ {
		i := rd.colRow[k]
		if !rd.rowAlive[i] {
			continue
		}
		rd.rhs[i] -= rd.colVal[k] * val
		rd.rowNnz[i]--
	}
	rd.objOff += rd.obj[v] * val
	rd.colAlive[v] = false
	rd.undo = append(rd.undo, presolveRec{action: presolveFixedCol, col: v, val: val})
}

// elimEmptyCol rests a column with no surviving rows at whichever working
// bound the objective prefers. A preferred bound at infinity leaves the
// column alive — the core detects the unbounded ray if the rest of the
// problem turns out feasible.
func (rd *reducer) elimEmptyCol(v int) bool {
	c := rd.obj[v]
	val, atUpper := rd.lo[v], false
	if c > 0 {
		if math.IsInf(rd.hi[v], 1) {
			return false
		}
		val, atUpper = rd.hi[v], rd.hi[v] > rd.lo[v]
	}
	rd.objOff += c * val
	rd.colAlive[v] = false
	rd.undo = append(rd.undo, presolveRec{action: presolveEmptyCol, col: v, val: val, atUpper: atUpper})
	return true
}

// tighten runs the activity-bounds pass over every surviving multi-column
// row: an infeasibility probe always, implied-bound installs only when
// the caller does not need duals.
func (rd *reducer) tighten() bool {
	changed := false
	for i := 0; i < rd.m; i++ {
		if !rd.rowAlive[i] || rd.rowNnz[i] < 2 {
			continue
		}
		if rd.tightenRow(i) {
			changed = true
		}
		if rd.infeasible {
			return changed
		}
	}
	return changed
}

func (rd *reducer) tightenRow(i int) bool {
	idx, val := rd.sr.row(i)
	b := rd.rhs[i]
	sense := rd.sr.sense[i]

	// Row activity bounds over the surviving columns. Only an infinite
	// upper bound can push a contribution to ±inf (lower bounds are
	// finite by construction), so one counter per direction suffices.
	var minSum, maxSum float64
	var minInf, maxInf int
	for k := range idx {
		j := idx[k]
		if !rd.colAlive[j] {
			continue
		}
		a := val[k]
		if a > 0 {
			minSum += a * rd.lo[j]
			if math.IsInf(rd.hi[j], 1) {
				maxInf++
			} else {
				maxSum += a * rd.hi[j]
			}
		} else {
			maxSum += a * rd.lo[j]
			if math.IsInf(rd.hi[j], 1) {
				minInf++
			} else {
				minSum += a * rd.hi[j]
			}
		}
	}
	tol := presolveTol * scaleOf(b)
	if (sense == LE || sense == EQ) && minInf == 0 && minSum > b+tol {
		rd.infeasible = true
		return false
	}
	if (sense == GE || sense == EQ) && maxInf == 0 && maxSum < b-tol {
		rd.infeasible = true
		return false
	}
	if rd.needDuals {
		return false // probe only; installs would orphan reduced costs
	}

	// Implied bounds: a_j·x_j {<=,>=} b − (activity bound of the others).
	// Bounds installed earlier in this row only loosen the cached sums,
	// so later candidates stay valid (merely weaker than freshest).
	changed := false
	for k := range idx {
		j := idx[k]
		if !rd.colAlive[j] {
			continue
		}
		a := val[k]
		if sense == LE || sense == EQ {
			if resid, ok := rd.activityResidual(minSum, minInf, a, j, false); ok {
				cand := (b - resid) / a
				if a > 0 {
					if cand < rd.hi[j]-presolveTol*scaleOf(cand) {
						rd.clampHi(j, cand)
						changed = true
					}
				} else if cand > rd.lo[j]+presolveTol*scaleOf(cand) {
					rd.clampLo(j, cand)
					changed = true
				}
			}
		}
		if rd.infeasible {
			return changed
		}
		if sense == GE || sense == EQ {
			if resid, ok := rd.activityResidual(maxSum, maxInf, a, j, true); ok {
				cand := (b - resid) / a
				if a > 0 {
					if cand > rd.lo[j]+presolveTol*scaleOf(cand) {
						rd.clampLo(j, cand)
						changed = true
					}
				} else if cand < rd.hi[j]-presolveTol*scaleOf(cand) {
					rd.clampHi(j, cand)
					changed = true
				}
			}
		}
		if rd.infeasible {
			return changed
		}
	}
	return changed
}

// activityResidual returns the activity bound of a row minus column j's
// own contribution — the tightest finite bound on what the other columns
// contribute — with ok=false when that residual is infinite. upper
// selects the max-activity direction.
func (rd *reducer) activityResidual(sum float64, infs int, a float64, j int, upper bool) (float64, bool) {
	var contrib float64
	infContrib := false
	switch {
	case (a > 0) == upper: // a>0 against hi, a<0 against hi in min sense
		if math.IsInf(rd.hi[j], 1) {
			infContrib = true
		} else {
			contrib = a * rd.hi[j]
		}
	default:
		contrib = a * rd.lo[j]
	}
	if infContrib {
		if infs == 1 {
			return sum, true
		}
		return 0, false
	}
	if infs > 0 {
		return 0, false
	}
	return sum - contrib, true
}

// computeScaling fills ps.colScale/rowScale with two rounds of
// geometric-mean equilibration over the surviving submatrix, every scale
// rounded to a power of two (exact unscaling). Kept columns stay at 1.
// All-unit scalings are dropped to nil so the common well-scaled case
// pays nothing at postsolve.
func (rd *reducer) computeScaling(ps *presolved) {
	rowS := make([]float64, rd.m)
	colS := make([]float64, rd.n)
	for i := range rowS {
		rowS[i] = 1
	}
	for j := range colS {
		colS[j] = 1
	}
	for round := 0; round < 2; round++ {
		for _, i := range ps.rows {
			minA, maxA := math.Inf(1), 0.0
			for k := rd.sr.ptr[i]; k < rd.sr.ptr[i+1]; k++ {
				j := rd.sr.idx[k]
				if !rd.colAlive[j] {
					continue
				}
				if a := math.Abs(rd.sr.val[k]) * colS[j]; a > 0 {
					minA = math.Min(minA, a)
					maxA = math.Max(maxA, a)
				}
			}
			if maxA > 0 {
				rowS[i] = pow2Recip(math.Sqrt(minA * maxA))
			}
		}
		for _, j := range ps.cols {
			if rd.keep[j] {
				continue
			}
			minA, maxA := math.Inf(1), 0.0
			for k := rd.colPtr[j]; k < rd.colPtr[j+1]; k++ {
				i := rd.colRow[k]
				if !rd.rowAlive[i] {
					continue
				}
				if a := math.Abs(rd.colVal[k]) * rowS[i]; a > 0 {
					minA = math.Min(minA, a)
					maxA = math.Max(maxA, a)
				}
			}
			if maxA > 0 {
				colS[j] = pow2Recip(math.Sqrt(minA * maxA))
			}
		}
	}
	allUnit := true
	for _, i := range ps.rows {
		//lint:ignore floatcmp scales are exact powers of two; 1 is the exact no-op value
		if rowS[i] != 1 {
			allUnit = false
			break
		}
	}
	if allUnit {
		for _, j := range ps.cols {
			//lint:ignore floatcmp scales are exact powers of two; 1 is the exact no-op value
			if colS[j] != 1 {
				allUnit = false
				break
			}
		}
	}
	if allUnit {
		return
	}
	ps.rowScale, ps.colScale = rowS, colS
}

// pow2Recip returns the power of two nearest to 1/g (so that g·pow2Recip(g)
// lands in [1/sqrt2, sqrt2)); 1 for degenerate inputs.
func pow2Recip(g float64) float64 {
	if g <= 0 || math.IsInf(g, 0) || math.IsNaN(g) {
		return 1
	}
	frac, exp := math.Frexp(g) // g = frac·2^exp, frac in [0.5, 1)
	if frac < math.Sqrt2/2 {
		exp--
	}
	return math.Ldexp(1, -exp)
}

// buildReduced materialises the surviving subproblem with the scaling
// applied.
func (rd *reducer) buildReduced(ps *presolved) *Problem {
	rp := NewProblem(len(ps.cols))
	for rj, oj := range ps.cols {
		s := 1.0
		if ps.colScale != nil {
			s = ps.colScale[oj]
		}
		if c := rd.obj[oj]; c != 0 {
			rp.SetObjCoef(rj, c*s)
		}
		lo, hi := rd.lo[oj]/s, rd.hi[oj]/s
		if lo != 0 || !math.IsInf(hi, 1) {
			rp.SetBounds(rj, lo, hi)
		}
	}
	terms := make([]Term, 0, 16)
	for _, oi := range ps.rows {
		r := 1.0
		if ps.rowScale != nil {
			r = ps.rowScale[oi]
		}
		terms = terms[:0]
		for k := rd.sr.ptr[oi]; k < rd.sr.ptr[oi+1]; k++ {
			oj := rd.sr.idx[k]
			if !rd.colAlive[oj] {
				continue
			}
			s := 1.0
			if ps.colScale != nil {
				s = ps.colScale[oj]
			}
			terms = append(terms, Term{Var: ps.colMap[oj], Coef: rd.sr.val[k] * r * s})
		}
		rp.AddConstraint(terms, rd.sr.sense[oi], rd.rhs[oi]*r)
	}
	return rp
}

// postsolveX reconstructs the original-problem solution vector from a
// reduced one: scatter and unscale the surviving columns, then replay
// the undo stack in reverse for the eliminated ones.
func (ps *presolved) postsolveX(xr []float64) []float64 {
	x := make([]float64, ps.n)
	for rj, oj := range ps.cols {
		v := xr[rj]
		if ps.colScale != nil {
			v *= ps.colScale[oj]
		}
		x[oj] = v
	}
	for k := len(ps.undo) - 1; k >= 0; k-- {
		u := ps.undo[k]
		if u.action == presolveFixedCol || u.action == presolveEmptyCol {
			x[u.col] = u.val
		}
	}
	return x
}

// postsolveDuals reconstructs the original-problem dual vector: unscale
// and scatter the surviving rows' duals (eliminated rows start at 0),
// then walk the undo stack in reverse assigning each singleton row the
// residual reduced cost of its column — unless that residual is already
// absorbed: negligible, the row is slack at x (complementary slackness),
// or the column rests on one of its original bounds with the admissible
// sign. After a row takes a column's residual the later (earlier-pushed)
// records on the same column see zero and stay at 0, so each column's
// residual is attributed at most once.
func (ps *presolved) postsolveDuals(x, yr []float64) []float64 {
	y := make([]float64, ps.m)
	for ri, oi := range ps.rows {
		v := yr[ri]
		if ps.rowScale != nil {
			v *= ps.rowScale[oi]
		}
		y[oi] = v
	}
	var sr *sparseRows
	var colPtr, colRow []int
	var colVal []float64
	for k := len(ps.undo) - 1; k >= 0; k-- {
		u := ps.undo[k]
		if u.action != presolveSingletonRow {
			continue
		}
		if sr == nil {
			sr, colPtr, colRow, colVal = ps.origColumns()
		}
		v := u.col
		// Residual reduced cost of column v under the duals assigned so
		// far, with Certify's column-activity scaling on the tolerance.
		red := ps.orig.obj[v]
		absSum := 0.0
		for t := colPtr[v]; t < colPtr[v+1]; t++ {
			c := y[colRow[t]] * colVal[t]
			red -= c
			absSum += math.Abs(c)
		}
		if math.Abs(red) <= presolveTol*math.Max(1, absSum) {
			continue
		}
		// Slack rows carry no dual: their implied bound cannot be the one
		// x rests on.
		i := u.row
		act := u.coef * x[v]
		for t := sr.ptr[i]; t < sr.ptr[i+1]; t++ {
			if j := sr.idx[t]; j != v {
				act += sr.val[t] * x[j]
			}
		}
		b := sr.rhs[i]
		atol := presolveTol * scaleOf(b)
		if (u.sense == LE && act < b-atol) || (u.sense == GE && act > b+atol) {
			continue
		}
		// A residual the column's own original bound can absorb with the
		// admissible sign belongs to that bound's multiplier, not the row.
		lo, hi := ps.orig.boundsAt(v)
		if red > 0 && !math.IsInf(hi, 1) && x[v] >= hi-presolveTol*scaleOf(hi) {
			continue
		}
		if red < 0 && x[v] <= lo+presolveTol*scaleOf(lo) {
			continue
		}
		y[i] = red / u.coef
	}
	return y
}

// origColumns lazily builds the original problem's deduped rows and their
// counting transpose for the dual recovery's column walks.
func (ps *presolved) origColumns() (*sparseRows, []int, []int, []float64) {
	sr := dedupRows(ps.orig)
	n := ps.n
	colPtr := make([]int, n+1)
	for _, j := range sr.idx {
		colPtr[j+1]++
	}
	for j := 0; j < n; j++ {
		colPtr[j+1] += colPtr[j]
	}
	colRow := make([]int, len(sr.idx))
	colVal := make([]float64, len(sr.idx))
	next := append([]int(nil), colPtr[:n]...)
	for i := 0; i < len(sr.sense); i++ {
		for k := sr.ptr[i]; k < sr.ptr[i+1]; k++ {
			j := sr.idx[k]
			colRow[next[j]] = i
			colVal[next[j]] = sr.val[k]
			next[j]++
		}
	}
	return sr, colPtr, colRow, colVal
}

// reducedCosts recomputes c − yᵀA over the original problem for a mapped
// dual vector.
func (ps *presolved) reducedCosts(y []float64) []float64 {
	red := append([]float64(nil), ps.orig.obj...)
	for i := 0; i < ps.m; i++ {
		yi := y[i]
		if yi == 0 {
			continue
		}
		r := ps.orig.rowAt(i)
		for _, tm := range r.terms {
			red[tm.Var] -= yi * tm.Coef
		}
	}
	return red
}

// restoreBasis maps a reduced-problem basis onto the original problem:
// surviving rows translate their entries through the index maps, and
// every eliminated row seats its own logical — the basis matrix is block
// triangular over the (surviving, eliminated) row split, so the restored
// column set is nonsingular whenever the reduced one was. The
// factorisation snapshot does not survive the reindexing; SolveFrom
// refactorises on first use. With a nil reduced basis (every row
// eliminated) the restored basis is all logicals.
func (ps *presolved) restoreBasis(br *Basis) *Basis {
	if br == nil && ps.reduced != nil {
		return nil // non-optimal reduced solve: nothing to restore
	}
	entries := make([]basisEntry, ps.m)
	atUpper := make([]bool, ps.n)
	for i := 0; i < ps.m; i++ {
		ri := ps.rowMap[i]
		if ri < 0 || br == nil {
			entries[i] = basisEntry{kind: basisLogical, idx: i}
			continue
		}
		e := br.entries[ri]
		switch e.kind {
		case basisStructural:
			entries[i] = basisEntry{kind: basisStructural, idx: ps.cols[e.idx]}
		default:
			entries[i] = basisEntry{kind: e.kind, idx: ps.rows[e.idx]}
		}
	}
	if br != nil && br.atUpper != nil {
		for rj, oj := range ps.cols {
			if br.atUpper[rj] {
				atUpper[oj] = true
			}
		}
	}
	for _, u := range ps.undo {
		if u.action == presolveEmptyCol && u.atUpper {
			atUpper[u.col] = true
		}
	}
	return &Basis{nVars: ps.n, entries: entries, atUpper: atUpper}
}

// mapSolution lifts a reduced-problem Solution to the original problem.
// The objective is recomputed from the original coefficients over the
// postsolved X, which also folds the eliminated columns' offset back in.
func (ps *presolved) mapSolution(sol *Solution) *Solution {
	out := &Solution{Status: sol.Status, Iterations: sol.Iterations, FactorRebuilt: sol.FactorRebuilt}
	if sol.X == nil {
		return out
	}
	out.X = ps.postsolveX(sol.X)
	for v, c := range ps.orig.obj {
		out.Objective += c * out.X[v]
	}
	return out
}

// directSolution is the solution of a problem presolve decided outright
// (every column eliminated, every row feasibility-checked).
func (ps *presolved) directSolution() *Solution {
	sol := &Solution{Status: Optimal, X: ps.postsolveX(nil)}
	for v, c := range ps.orig.obj {
		sol.Objective += c * sol.X[v]
	}
	return sol
}

// directDualSolution augments directSolution with duals: eliminated rows
// start at zero and the singleton recovery fills in the binding ones.
func (ps *presolved) directDualSolution() *DualSolution {
	sol := ps.directSolution()
	ds := &DualSolution{Solution: *sol}
	ds.Duals = ps.postsolveDuals(sol.X, nil)
	ds.ReducedCosts = ps.reducedCosts(ds.Duals)
	return ds
}

// mapDualSolution lifts a reduced-problem DualSolution to the original
// problem: X and objective via mapSolution, duals via the undo walk,
// reduced costs recomputed against the recovered duals.
func (ps *presolved) mapDualSolution(ds *DualSolution) *DualSolution {
	out := &DualSolution{Solution: *ps.mapSolution(&ds.Solution)}
	if ds.Status != Optimal || ds.Duals == nil {
		return out
	}
	out.Duals = ps.postsolveDuals(out.X, ds.Duals)
	out.ReducedCosts = ps.reducedCosts(out.Duals)
	return out
}

// presolveFor runs the layer for one of the package-level solve entry
// points. It returns nil when the solve should proceed directly on the
// original problem: the mode resolves to off, or presolve hit a corner
// it does not model (fallback).
func presolveFor(p *Problem, opts Options, needDuals bool) *presolved {
	if !resolvePresolve(opts.Presolve, p.NumConstraints()) {
		return nil
	}
	ps := presolveProblem(p, nil, needDuals)
	if ps.fallback {
		return nil
	}
	return ps
}

// Presolved is the exported presolve handle for callers that run many
// related solves in the reduced space — branch-and-bound presolves once
// at the root, searches reduced, and postsolves incumbents. Columns in
// the keep set survive every reduction unscaled, so their indices map
// through Col and their values are identical in both spaces.
type Presolved struct {
	ps *presolved
}

// RootPresolve presolves p for a reduced-space search. keep lists columns
// that must survive untouched (integer variables). It returns nil when
// opts.Presolve resolves to off or the layer cannot reduce this shape,
// in which case the caller proceeds on the original problem.
func RootPresolve(p *Problem, keep []int, opts Options) *Presolved {
	if !resolvePresolve(opts.Presolve, p.NumConstraints()) {
		return nil
	}
	ps := presolveProblem(p, keep, false)
	if ps.fallback {
		return nil
	}
	return &Presolved{ps: ps}
}

// Status is Optimal when a reduced problem (or a directly decided
// solution) is available, Infeasible when presolve proved the original
// problem infeasible.
func (r *Presolved) Status() Status { return r.ps.status }

// Reduced returns the reduced problem, or nil when presolve decided
// every variable (PostsolveX(nil) is then the complete solution).
func (r *Presolved) Reduced() *Problem { return r.ps.reduced }

// Col maps an original column index to its reduced index (-1 when the
// column was eliminated; never -1 for keep columns).
func (r *Presolved) Col(orig int) int { return r.ps.colMap[orig] }

// PostsolveX reconstructs the original-space solution vector from a
// reduced-space one.
func (r *Presolved) PostsolveX(xr []float64) []float64 { return r.ps.postsolveX(xr) }

// ReduceX maps an original-space vector into the reduced space: the
// inverse of PostsolveX on the surviving columns (eliminated columns are
// dropped). x must have one entry per original column.
func (r *Presolved) ReduceX(x []float64) []float64 {
	ps := r.ps
	xr := make([]float64, len(ps.cols))
	for rj, oj := range ps.cols {
		v := x[oj]
		if ps.colScale != nil {
			v /= ps.colScale[oj]
		}
		xr[rj] = v
	}
	return xr
}

// ObjOffset is the objective contribution of the eliminated columns:
// original objective = reduced objective + ObjOffset.
func (r *Presolved) ObjOffset() float64 { return r.ps.objOff }
