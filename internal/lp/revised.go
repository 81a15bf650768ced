package lp

// Revised simplex over a sparse LU basis factorisation. The core keeps the
// original matrix immutable and maintains the LU factors of the basis
// beside it (factor.go), updated per pivot by an eta file and rebuilt
// adaptively. That makes two things possible that a solver rewriting its
// whole matrix per pivot cannot offer:
//
//   - an exportable Basis: the basic column set (plus the nonbasic-at-bound
//     markers) is plain data that survives the solve and can seed another;
//   - warm starts (SolveFrom): branch-and-bound children differ from their
//     parent only by tightened variable bounds (or appended rows), so
//     the parent's optimal basis stays dual feasible for the child and a
//     short dual-simplex phase restores primal feasibility in a handful of
//     pivots instead of a full two-phase solve.
//
// The core implements the bounded-variable simplex method: every column j
// carries a box [lo_j, hi_j] and a nonbasic column rests at either bound
// (atUpper selects which). Basic values are xb = B⁻¹q where
// q = b − Σ_{nonbasic j} A_j·x_j folds the nonbasic bound values into the
// right-hand side; q is maintained incrementally as columns change bounds.
// Pricing is sign-aware (a column at its upper bound enters when its
// reduced cost is negative, moving down), the ratio test includes the
// bound-flip case (the entering column hits its opposite bound before any
// basic column hits one of its own — no pivot, just a q update), and
// fixed columns (lo == hi: equality logicals, frozen artificials, branch-
// fixed variables) are never eligible to enter.
//
// Canonical column layout for a problem with n structural variables and m
// rows: columns [0, n) are structural with the Problem's boxes, column n+i
// is the logical of row i ([0, +inf) slack after orienting >= rows to <=;
// fixed at [0, 0] for == rows) and column n+m+i is the phase-1 artificial
// of row i ([0, +inf) during phase 1, frozen to [0, 0] afterwards). Rows
// are equilibrated (scaled by their largest structural coefficient) so one
// tolerance discipline holds across rows mixing GFLOP/s-scale and
// accuracy-slope-scale data.

import (
	"errors"
	"fmt"
	"math"
	"time"
)

const (
	// tol is the pivot and feasibility tolerance of every solve.
	tol = 1e-9
	// feasTol is the (post-equilibration) tolerance used to decide phase-1
	// feasibility and to report residual artificial infeasibility.
	feasTol = 1e-7
	// degenerateRunLimit is the number of consecutive degenerate pivots
	// after which pricing switches to Bland's rule (which cannot cycle).
	degenerateRunLimit = 64
	// singularTol is the pivoting threshold below which a basis matrix is
	// declared singular during factorisation.
	singularTol = 1e-11
	// minPivot rejects pivot elements too small to divide by safely.
	minPivot = 1e-11
)

var (
	errSingular  = errors.New("lp: singular basis")
	errNumerical = errors.New("lp: numerical failure (pivot element vanished)")
)

// rev is the revised simplex working state.
type rev struct {
	m, n  int // rows, structural variables
	width int // n + 2m: structural + logical + artificial column index space
	rw    int // n + m: structural + logical columns (artificials are implicit)

	// sp stores the structural columns only; the logical of row i is +e_i
	// and the artificial of row i is ±e_i, both reconstructed on demand.
	sp      csMatrix  // CSR+CSC immutable structural block
	artSign []float64 // m; artificial column signs (±1)
	b       []float64 // m oriented+scaled right-hand sides
	q       []float64 // m; b minus the nonbasic columns' bound contributions

	lo, hi  []float64 // width; column boxes (see package layout comment)
	atUpper []bool    // width; nonbasic column rests at hi instead of lo

	// rowScale and rowNeg record the equilibration scale and orientation
	// sign applied to each stored row, so duals priced in the stored frame
	// can be mapped back to the caller's rows (SolveBasisWithDuals).
	rowScale []float64 // m; largest structural coefficient (1 for all-zero rows)
	rowNeg   []float64 // m; −1 for >= rows negated to <=, else +1

	basis   []int  // basis[i] = column basic in row i
	inBasis []bool // width

	lu *luFactor // basis factors with their eta file of pivot updates
	xb []float64 // current basic values, B⁻¹·q

	iters         int
	iterLimit     int
	deadline      time.Time
	blandMode     bool
	degenRun      int
	sinceRefactor int
	numRetries    int  // consecutive vanished-pivot rebuilds; bounded to stay terminating
	dFresh        bool // t.d currently holds valid reduced costs (dual incremental updates)

	// scratch buffers, allocated once
	y     []float64 // m dual prices of the working cost vector
	d     []float64 // width reduced costs
	alpha []float64 // width pivot-row coefficients (dual simplex)
	w     []float64 // m entering-column direction (ftran)
	wNz   []int     // ascending positions of w's nonzeros
	colv  []float64 // m gathered matrix column
	cb    []float64 // m btran input: basic costs, or a unit vector
	rho   []float64 // m btran output: one row of B⁻¹ (row space)
	luW   []float64 // m triangular-solve workspace
	luC   []float64 // m btran eta-transform workspace

	luBt btranScratch // btran's row-wise U of lu and its support buffer

	// Reuse-mode flags. A Workspace-owned rev (owned) persists across
	// solves, so a factor that a one-shot solve may share into a published
	// Basis must own fresh storage instead.
	// noEscape additionally promises that the solve publishes no Basis at
	// all, unlocking factor-arena reuse and an output Solution that aliases
	// the solver. The zero value (package-level entry points) is a fresh
	// rev per solve with today's sharing semantics.
	owned    bool
	noEscape bool

	// Construction state, reused by init across solves: the canonical rows
	// of the last problem (sp's CSR side aliases them) and the transpose
	// cursor.
	rb     rowBuilder
	csNext []int // csMatrix.build transpose cursor

	// Factor-path scratch.
	fColPtr []int // refactorizeLU CSC gather of the basis columns
	fRowIdx []int
	fVals   []float64
	fac     facState // right-looking elimination workspace
	luStore luFactor // owned factor arena (owned && noEscape)
	luHold  luFactor // persistent holder for adopted frozen snapshots
	// pubScales is the immutable record of rowScale that the factors this
	// solve may publish share (see luFactor.scales): the adopted factor's,
	// or a copy made by the first refactorisation. Reset by init.
	pubScales []float64

	// Residual-check scratch.
	resSum   []float64 // inverseResidualOK sparse accumulators
	resScale []float64

	// Solve-driver scratch.
	colsBuf  []int     // starting-basis column list
	seenCols []bool    // solveFrom duplicate-column check
	costBuf  []float64 // phase-1/phase-2/warm cost vectors

	// noEscape output buffers: the returned Solution and its X alias these.
	xOut   []float64
	solOut *Solution
}

// newRev builds a fresh solver for one solve; see init for the body. The
// package-level entry points use it, so their allocation behaviour (and
// Basis sharing) is unchanged; a Workspace calls init on its persistent
// rev instead.
func newRev(p *Problem, opts Options) *rev {
	t := &rev{}
	t.init(p, opts)
	return t
}

// init (re)builds the canonical-form matrix for p: >= rows negated to <=,
// rows equilibrated, one logical and one artificial column per row. The
// rows come from the rev's row builder, which rebuilds only the rows whose
// terms changed since the last solve on this rev, and are stored as a
// CSR+CSC pair; the CSC side is re-indexed only when a row or the column
// count changed. Column boxes come from the Problem's bounds; the initial
// nonbasic point is every structural column at its lower bound, which
// fixes q and the artificial signs.
//
// Every buffer is sized with grown/taken, so re-initialising a rev whose
// buffers have already grown to this shape allocates nothing. All
// per-solve state fields are reset here; owned/noEscape are the caller's
// and preserved.
//
//lint:hotpath=bounded rebuilding the canonical form allocates only on warm-up growth; the Workspace AllocsPerRun pins hold the steady state at zero
func (t *rev) init(p *Problem, opts Options) {
	m := p.NumConstraints()
	n := p.nVars
	t.m, t.n = m, n
	t.width = n + 2*m
	t.rw = n + m
	t.artSign = grown(t.artSign, m)
	t.b = grown(t.b, m)
	t.q = grown(t.q, m)
	t.rowNeg = grown(t.rowNeg, m)
	t.lo = grown(t.lo, t.width)
	t.hi = grown(t.hi, t.width)
	t.atUpper = grown(t.atUpper, t.width)
	t.basis = grown(t.basis, m)
	t.inBasis = grown(t.inBasis, t.width)
	t.xb = grown(t.xb, m)
	t.y = grown(t.y, m)
	t.d = grown(t.d, t.width)
	t.alpha = grown(t.alpha, t.width)
	t.w = grown(t.w, m)
	t.wNz = grown(t.wNz, m)[:0]
	t.colv = grown(t.colv, m)
	t.cb = grown(t.cb, m)
	t.rho = grown(t.rho, m)
	t.luW = grown(t.luW, m)
	t.luC = grown(t.luC, m)
	t.iters = 0
	t.blandMode = false
	t.degenRun = 0
	t.sinceRefactor = 0
	t.numRetries = 0
	t.dFresh = false
	t.lu = nil
	t.pubScales = nil
	t.iterLimit = opts.MaxIters
	if t.iterLimit == 0 {
		t.iterLimit = 100*(m+n) + 1000
	}
	t.deadline = opts.Deadline

	inf := math.Inf(1)
	for v := 0; v < n; v++ {
		t.lo[v], t.hi[v] = p.boundsAt(v)
	}
	for i := 0; i < m; i++ {
		t.hi[t.rw+i] = inf // artificials: [0, +inf) until frozen after phase 1
	}

	// Rows the last solve on this rev built from the same terms keep their
	// canonical form; the right-hand sides are re-read, since SetRHS edits
	// only a row's header.
	changed := t.rb.build(p)
	t.rowScale = t.rb.scale
	for i := 0; i < m; i++ {
		r := p.rowAt(i)
		rhs := r.rhs
		if r.sense == GE {
			rhs = -rhs
			t.rowNeg[i] = -1
		} else {
			t.rowNeg[i] = 1
		}
		t.b[i] = rhs * (1 / t.rowScale[i])
		if r.sense == EQ {
			// Equality logical: fixed at zero ([0, 0]); never enters.
			t.hi[n+i] = 0
		} else {
			t.hi[n+i] = inf
		}
	}
	if changed || len(t.sp.colPtr) != n+1 {
		t.csNext = grown(t.csNext, n)
		t.sp.build(m, n, t.rb.rows, t.csNext)
	}
	// With every structural column nonbasic at its lower bound (the state
	// setBasis/SolveBasis start from), q = b − A·lo determines which rows
	// need a negatively-signed artificial to start basic at |q| >= 0.
	t.recomputeQ()
	for i := 0; i < m; i++ {
		if t.q[i] >= 0 {
			t.artSign[i] = 1
		} else {
			t.artSign[i] = -1
		}
	}
}

// nbVal returns the current value of nonbasic column j: the bound it
// rests at.
func (t *rev) nbVal(j int) float64 {
	if t.atUpper[j] {
		return t.hi[j]
	}
	return t.lo[j]
}

// eligible reports whether column j may be chosen as entering: structural
// or logical (artificials never re-enter), currently nonbasic, and not
// fixed (lo == hi columns — equality logicals, frozen artificials and
// branch-fixed variables — have no room to move).
func (t *rev) eligible(j int) bool {
	return !t.inBasis[j] && t.hi[j] > t.lo[j]
}

// recomputeQ rebuilds q = b − Σ_{nonbasic j} A_j·x_j from scratch. Only
// structural columns can contribute: logicals and artificials rest at zero
// whenever nonbasic (their lower bound, and their upper bound is either
// +inf — never selected — or also zero).
func (t *rev) recomputeQ() {
	copy(t.q, t.b)
	for v := 0; v < t.n; v++ {
		if t.inBasis[v] {
			continue
		}
		if val := t.nbVal(v); val != 0 {
			t.addColTimes(v, -val)
		}
	}
}

// addColTimes adds factor·A_col to q.
//
//lint:hotpath runs per bound flip and per pivot; pinned to zero allocations
func (t *rev) addColTimes(col int, factor float64) {
	if factor == 0 {
		return
	}
	if col >= t.rw {
		t.q[col-t.rw] += factor * t.artSign[col-t.rw]
		return
	}
	if col >= t.n {
		t.q[col-t.n] += factor
		return
	}
	for k := t.sp.colPtr[col]; k < t.sp.colPtr[col+1]; k++ {
		t.q[t.sp.rowIdx[k]] += factor * t.sp.colVal[k]
	}
}

// gatherCol scatters matrix column col (structural, logical or implicit
// artificial) into t.colv as a dense row-space vector.
//
//lint:hotpath feeds every FTRAN; pinned to zero allocations
func (t *rev) gatherCol(col int) {
	for i := range t.colv {
		t.colv[i] = 0
	}
	switch {
	case col >= t.rw:
		t.colv[col-t.rw] = t.artSign[col-t.rw]
	case col >= t.n:
		t.colv[col-t.n] = 1
	default:
		for k := t.sp.colPtr[col]; k < t.sp.colPtr[col+1]; k++ {
			t.colv[t.sp.rowIdx[k]] = t.sp.colVal[k]
		}
	}
}

// refactorize gathers the basis columns into CSC form, computes a fresh
// sparse LU (factor.go) with an empty eta file and refreshes xb = B⁻¹q:
// an O(nnz of the basis) gather plus the near-O(nnz) elimination on the
// staircase bases the paper's instances produce.
//
//lint:freezer records the row scales on the factor it has just built, before any snapshot of it exists
func (t *rev) refactorize() error {
	m := t.m
	t.fColPtr = grown(t.fColPtr, m+1)
	colPtr := t.fColPtr
	rowIdx := t.fRowIdx[:0]
	vals := t.fVals[:0]
	for i := 0; i < m; i++ {
		col := t.basis[i]
		switch {
		case col >= t.rw:
			rowIdx = append(rowIdx, col-t.rw)
			vals = append(vals, t.artSign[col-t.rw])
		case col >= t.n:
			rowIdx = append(rowIdx, col-t.n)
			vals = append(vals, 1)
		default:
			for k := t.sp.colPtr[col]; k < t.sp.colPtr[col+1]; k++ {
				if v := t.sp.colVal[k]; v != 0 {
					rowIdx = append(rowIdx, t.sp.rowIdx[k])
					vals = append(vals, v)
				}
			}
		}
		colPtr[i+1] = len(rowIdx)
	}
	t.fRowIdx, t.fVals = rowIdx, vals
	if t.reuseFactor() {
		// No Basis will be published, so the factor arenas (and the eta
		// file appendEta grows in them) are private to this solver and
		// reused across solves.
		if err := t.fac.factorizeInto(&t.luStore, m, colPtr, rowIdx, vals); err != nil {
			return err
		}
		t.luStore.scales = taken(t.luStore.scales, t.rowScale)
		t.lu = &t.luStore
	} else {
		// A frozen snapshot of this factor may be published into a Basis,
		// so it must own fresh storage.
		f := &luFactor{}
		if err := t.fac.factorizeInto(f, m, colPtr, rowIdx, vals); err != nil {
			return err
		}
		if t.pubScales == nil {
			t.pubScales = append([]float64(nil), t.rowScale...)
		}
		f.scales = t.pubScales
		t.lu = f
	}
	t.luBt.load(t.lu)
	t.sinceRefactor = 0
	t.computeXB()
	return nil
}

// reuseFactor reports whether LU factors may live in the solver-owned
// arenas: only when the solver is Workspace-owned AND no Basis escapes the
// call — a published frozen factor must never share storage that a later
// solve will overwrite.
func (t *rev) reuseFactor() bool { return t.owned && t.noEscape }

// inheritFactor adopts a parent snapshot's frozen LU factors: a struct
// copy sharing the immutable L/U and the clipped eta file (appends
// copy-on-write, so sibling children adopting the same snapshot never
// race). Rows appended since the snapshot are absorbed by extendFactor. It
// reports false — leaving the caller to refactorise — when the snapshot
// carries no factor, when its eta file is already fill-heavy, when one of
// its rows has a different equilibration scale now, or when the residual
// check B·xb ≈ q fails (q, not b: a child that tightened a bound moved the
// nonbasic contribution folded into q, and a flipped artificial sign
// surfaces here too).
func (t *rev) inheritFactor(from *Basis) bool {
	f := from.fac
	if f == nil || f.m > t.m || f.fillHeavy() || !t.scalesMatch(f) {
		return false
	}
	if t.noEscape {
		// No frozen snapshot of this factor will be published, so deep-copy
		// the parent's factors into the solver-owned arenas: later eta
		// appends extend private storage instead of triggering per-append
		// copy-on-write growth, and the copy itself reuses grown capacity.
		t.luStore.copyFrom(f)
		t.lu = &t.luStore
	} else {
		// A struct copy sharing the immutable L/U and the clipped eta file
		// (appends copy-on-write, see appendEta); held by value in the
		// solver so adoption allocates nothing beyond what appends force.
		t.luHold = *f
		t.lu = &t.luHold
	}
	if f.m < t.m {
		t.extendFactor(f.m)
	}
	// The factors this solve publishes were computed under the scales of
	// the adopted one, and may share its record of them.
	t.pubScales = t.lu.scales
	t.sinceRefactor = from.age
	t.computeXB()
	if !t.inverseResidualOK() {
		return false
	}
	// t.lu holds f's U, copied or shared, extended by empty steps.
	t.luBt.adopt(f, t.m)
	return true
}

// scalesMatch reports whether f was computed under the equilibration
// scales its rows have now. AppendTerms of a coefficient larger than a
// row's largest moves the row's scale, and so the basis matrix; when the
// row's q_i is 0 the residual check cannot see that.
func (t *rev) scalesMatch(f *luFactor) bool {
	if len(f.scales) != f.m {
		return false
	}
	for i, sc := range f.scales {
		if math.Float64bits(sc) != math.Float64bits(t.rowScale[i]) {
			return false
		}
	}
	return true
}

// extendFactor grows the adopted factor of the snapshot's m0 rows to the
// basis solveFrom starts from: the rows appended since the snapshot have
// their logicals basic at positions m0…m−1, so
//
//	B′ = [[B, 0], [C, I]] = [[B, 0], [0, I]] · [[I, 0], [C, I]],
//
// where C holds the appended rows' entries on the old basic columns, in
// the stored, scaled frame. The first factor is t.lu extended by identity
// steps (luFactor.extend). The second is one unit eta per old position
// whose basic structural column has entries in the appended rows, read
// from the CSC; the etas commute, since their off-diagonal entries lie in
// rows whose columns are identity. An arrival's C is a few dozen entries,
// against the refactorisation of the whole basis it replaces.
func (t *rev) extendFactor(m0 int) {
	t.lu.extend(t.m, t.rowScale[m0:], t.noEscape)
	for p := 0; p < m0; p++ {
		col := t.basis[p]
		if col >= t.n {
			continue // a logical or artificial: zero outside its own row
		}
		lo, hi := t.sp.colPtr[col], t.sp.colPtr[col+1]
		if lo == hi || t.sp.rowIdx[hi-1] < m0 {
			continue
		}
		k := searchIdx(t.sp.rowIdx, lo, hi, m0)
		t.lu.appendUnitEta(p, t.sp.rowIdx[k:hi], t.sp.colVal[k:hi])
	}
}

// inverseResidualOK spot-checks the represented inverse: the basic values
// it produces must satisfy B·xb = q to working accuracy. O(nnz of the
// basis), accumulated column-by-column, so each row sums its contributions
// in basis-position order.
func (t *rev) inverseResidualOK() bool {
	sum := grown(t.resSum, t.m)
	scale := grown(t.resScale, t.m)
	t.resSum, t.resScale = sum, scale
	for r := range scale {
		scale[r] = 1
	}
	// The per-case accumulation below is the inlined form of
	// add(r, v) = { sum[r] += v; scale[r] = max(scale[r], |v|) } —
	// inlined so this path stays closure-free (hotalloc gate), with the
	// accumulation order unchanged.
	for i := 0; i < t.m; i++ {
		col := t.basis[i]
		switch {
		case col >= t.rw:
			r, v := col-t.rw, t.artSign[col-t.rw]*t.xb[i]
			sum[r] += v
			if a := math.Abs(v); a > scale[r] {
				scale[r] = a
			}
		case col >= t.n:
			r, v := col-t.n, t.xb[i]
			sum[r] += v
			if a := math.Abs(v); a > scale[r] {
				scale[r] = a
			}
		default:
			for k := t.sp.colPtr[col]; k < t.sp.colPtr[col+1]; k++ {
				r, v := t.sp.rowIdx[k], t.sp.colVal[k]*t.xb[i]
				sum[r] += v
				if a := math.Abs(v); a > scale[r] {
					scale[r] = a
				}
			}
		}
	}
	for r := 0; r < t.m; r++ {
		if math.Abs(sum[r]-t.q[r]) > 1e-7*scale[r] {
			return false
		}
	}
	return true
}

// computeXB refreshes xb = B⁻¹ q, snapping roundoff residue just outside a
// basic column's box back onto the bound (the bounded generalisation of
// the old negative-residue-to-zero snap).
func (t *rev) computeXB() {
	t.lu.ftran(t.q, t.xb, t.luW)
	for i := 0; i < t.m; i++ {
		t.snapXB(i)
	}
}

// snapXB applies computeXB's bound snap to a single incrementally updated
// basic value.
//
//lint:hotpath runs once per basic row per pivot; pinned to zero allocations
func (t *rev) snapXB(i int) {
	bl, bh := t.lo[t.basis[i]], t.hi[t.basis[i]]
	if t.xb[i] < bl && t.xb[i] > bl-tol {
		t.xb[i] = bl
	} else if t.xb[i] > bh && t.xb[i] < bh+tol {
		t.xb[i] = bh
	}
}

// setBasis installs cols as the basis and rebuilds membership flags.
func (t *rev) setBasis(cols []int) {
	copy(t.basis, cols)
	for j := range t.inBasis {
		t.inBasis[j] = false
	}
	for _, c := range cols {
		t.inBasis[c] = true
	}
}

// prices computes the dual prices y = c_B B⁻¹ and reduced costs
// d = c − yᵀA for the working cost vector c.
//
//lint:hotpath full pricing pass per iteration; pinned to zero allocations
func (t *rev) prices(c []float64) {
	m := t.m
	// One BTRAN of the basic costs against the factors + eta file.
	for i := 0; i < m; i++ {
		t.cb[i] = c[t.basis[i]]
	}
	t.lu.btran(t.cb, t.y, t.luW, t.luC, &t.luBt)
	// Artificial reduced costs (columns >= rw) are never read — artificials
	// cannot enter — so only the structural+logical block is priced: y_i is
	// subtracted over row i's nonzeros plus the implicit logical
	// (coefficient 1 in row i), O(nnz + m) per pass.
	copy(t.d[:t.rw], c[:t.rw])
	for i := 0; i < m; i++ {
		yi := t.y[i]
		if yi == 0 {
			continue
		}
		for k := t.sp.rowPtr[i]; k < t.sp.rowPtr[i+1]; k++ {
			t.d[t.sp.colIdx[k]] -= yi * t.sp.rowVal[k]
		}
		t.d[t.n+i] -= yi
	}
	for i := 0; i < m; i++ {
		t.d[t.basis[i]] = 0 // exact by definition; zap rounding residue
	}
}

// ftran computes w = B⁻¹ A_col into t.w: the column is gathered into a
// dense row-space vector and solved against the factors + eta file. The
// ascending positions of w's nonzeros go to t.wNz, so the pivot's O(m)
// loops visit only those rows.
//
//lint:hotpath one entering-direction solve per pivot; pinned to zero allocations
func (t *rev) ftran(col int) {
	t.gatherCol(col)
	t.lu.ftran(t.colv, t.w, t.luW)
	nz := t.wNz[:0]
	for i, wi := range t.w {
		if wi != 0 {
			nz = append(nz, i)
		}
	}
	t.wNz = nz
}

// pivotRow computes alpha = (row pr of B⁻¹)·A into t.alpha. Artificial
// entries (columns >= rw) are never read by the callers and stay zero.
// Each contributing constraint row is accumulated over its nonzeros plus
// its implicit logical column: O(Σ nnz of contributing rows).
//
//lint:hotpath one ratio-test row per dual iteration; pinned to zero allocations
func (t *rev) pivotRow(pr int) {
	for j := 0; j < t.rw; j++ {
		t.alpha[j] = 0
	}
	// Row pr of B⁻¹: one BTRAN of the unit vector e_pr.
	for k := range t.cb {
		t.cb[k] = 0
	}
	t.cb[pr] = 1
	t.lu.btran(t.cb, t.rho, t.luW, t.luC, &t.luBt)
	for k := 0; k < t.m; k++ {
		bk := t.rho[k]
		if bk == 0 {
			continue
		}
		for z := t.sp.rowPtr[k]; z < t.sp.rowPtr[k+1]; z++ {
			t.alpha[t.sp.colIdx[z]] += bk * t.sp.rowVal[z]
		}
		t.alpha[t.n+k] += bk
	}
}

// flipCol moves nonbasic column pc from its current bound to the opposite
// one: a simplex step that hits the entering column's own far bound before
// any basic column hits one of its own, so the basis does not change. q
// absorbs the value change, the basic values shift along the precomputed
// direction w = B⁻¹A_pc, and that is the whole iteration.
//
//lint:hotpath whole iteration for bound-flip steps; pinned to zero allocations
func (t *rev) flipCol(pc int, sigma float64) {
	span := t.hi[pc] - t.lo[pc]
	t.addColTimes(pc, -sigma*span)
	for _, i := range t.wNz {
		t.xb[i] -= sigma * span * t.w[i]
		t.snapXB(i)
	}
	t.atUpper[pc] = !t.atUpper[pc]
}

// pivotBounded brings column pc into the basis at row pr, sending the
// leaving column to the bound selected by the ratio test (leaveToUpper).
// The factors absorb the pivot as one eta vector built from the
// precomputed direction w = B⁻¹A_pc, the basic values shift by the exact
// step that lands the leaving column on its bound, and q absorbs both
// columns' nonbasic value changes. It refactorises adaptively.
//
//lint:hotpath=bounded the refactorisation fallback and copy-on-write eta growth allocate; the pivot body itself is allocation-free
func (t *rev) pivotBounded(pr, pc int, leaveToUpper bool) error {
	piv := t.w[pr]
	if math.Abs(piv) < minPivot {
		// The update direction disagrees with the selection (drifted
		// factors): rebuild and report so the caller can re-price.
		if err := t.refactorize(); err != nil {
			return err
		}
		return errNumerical
	}
	leave := t.basis[pr]
	leaveVal := t.lo[leave]
	if leaveToUpper {
		leaveVal = t.hi[leave]
	}
	// The entering column leaves the nonbasic set (q regains its old bound
	// contribution) and the leaving column joins it at leaveVal.
	t.addColTimes(pc, t.nbVal(pc))
	t.addColTimes(leave, -leaveVal)

	// Entering step: exactly the displacement that lands the leaving
	// column on leaveVal.
	delta := (t.xb[pr] - leaveVal) / piv
	for _, i := range t.wNz {
		if i != pr {
			t.xb[i] -= delta * t.w[i]
			t.snapXB(i)
		}
	}
	t.xb[pr] = t.nbVal(pc) + delta

	// Product-form update: one eta vector from the direction already in
	// hand, O(nnz(w)).
	t.lu.appendEta(pr, t.w, t.wNz)

	t.inBasis[leave] = false
	t.atUpper[leave] = leaveToUpper
	t.atUpper[pc] = false
	t.basis[pr] = pc
	t.inBasis[pc] = true
	t.snapXB(pr)

	t.sinceRefactor++
	// Adaptive trigger: rebuild when the eta file outgrows the factors, or
	// when the amortised drift check finds the represented inverse has
	// wandered from the basis it claims to invert.
	if t.lu.fillHeavy() ||
		(t.sinceRefactor%driftCheckEvery == 0 && !t.inverseResidualOK()) {
		return t.refactorize()
	}
	return nil
}

// limits enforces the shared pivot budget and deadline; it returns a
// non-Optimal status when a limit is hit, Optimal otherwise.
func (t *rev) limits() Status {
	if t.iters >= t.iterLimit {
		return IterLimit
	}
	//lint:ignore wallclock sanctioned deadline probe, amortised to once per 128 pivots
	if t.iters%128 == 0 && !t.deadline.IsZero() && time.Now().After(t.deadline) {
		return TimeLimit
	}
	return Optimal
}

// trackDegenerate switches to Bland's rule after limit consecutive
// degenerate steps — a primal step length or a dual step (the entering
// reduced cost's ratio) of zero. Bland mode is sticky for the rest of
// the solve.
func (t *rev) trackDegenerate(ratio float64, limit int) {
	if ratio <= tol {
		t.degenRun++
		if t.degenRun >= limit {
			t.blandMode = true
		}
	} else {
		t.degenRun = 0
	}
}

// primal runs bounded-variable primal simplex pivots under cost vector c
// until optimality (no entering column) or a limit. The caller must ensure
// the current basis is primal feasible (every xb within its column's box).
func (t *rev) primal(c []float64) (Status, error) {
	for {
		if st := t.limits(); st != Optimal {
			return st, nil
		}
		// Entering column, sign-aware: a column at its lower bound improves
		// by increasing (d > 0, sigma +1), one at its upper bound by
		// decreasing (d < 0, sigma −1). Dantzig's rule enters the largest
		// such |d|; after a degenerate run Bland's rule takes the first
		// eligible column instead.
		t.prices(c)
		pc := -1
		sigma := 1.0
		if t.blandMode {
			for j := 0; j < t.rw; j++ {
				if !t.eligible(j) {
					continue
				}
				if t.atUpper[j] {
					if t.d[j] < -tol {
						pc = j
						break
					}
				} else if t.d[j] > tol {
					pc = j
					break
				}
			}
		} else {
			best := tol
			for j := 0; j < t.rw; j++ {
				if !t.eligible(j) {
					continue
				}
				score := t.d[j]
				if t.atUpper[j] {
					score = -score
				}
				if score > best {
					best = score
					pc = j
				}
			}
		}
		if pc == -1 {
			return Optimal, nil
		}
		if t.atUpper[pc] {
			sigma = -1
		}

		t.ftran(pc)

		// Bounded ratio test: the entering column moves by sigma·step; each
		// basic value i changes by −step·(sigma·w_i), so a positive
		// effective direction drives it toward its lower bound and a
		// negative one toward its (finite) upper bound. The entering
		// column's own span seeds the minimum — if nothing binds earlier
		// the iteration is a bound flip, no pivot. Ties prefer a row pivot
		// (pr == -1 initially) and then the lowest basic column index, the
		// Bland-compatible deterministic order.
		// Only rows where w is nonzero can bind, so the test walks t.wNz.
		pr := -1
		leaveToUpper := false
		minRatio := t.hi[pc] - t.lo[pc] // +inf when hi is
		for _, i := range t.wNz {
			wi := sigma * t.w[i]
			var ratio float64
			var toUpper bool
			if wi > tol {
				ratio = (t.xb[i] - t.lo[t.basis[i]]) / wi
			} else if bh := t.hi[t.basis[i]]; wi < -tol && !math.IsInf(bh, 1) {
				ratio = (bh - t.xb[i]) / -wi
				toUpper = true
			} else {
				continue
			}
			if ratio < 0 {
				ratio = 0 // roundoff residue just outside the box
			}
			if ratio < minRatio-tol || (math.Abs(ratio-minRatio) <= tol && (pr == -1 || t.basis[i] < t.basis[pr])) {
				minRatio = ratio
				pr = i
				leaveToUpper = toUpper
			}
		}
		if pr == -1 {
			if math.IsInf(minRatio, 1) {
				return Unbounded, nil
			}
			// Bound flip: the entering column jumps to its opposite bound.
			t.trackDegenerate(minRatio, degenerateRunLimit)
			t.flipCol(pc, sigma)
			t.iters++
			continue
		}
		t.trackDegenerate(minRatio, degenerateRunLimit)

		if err := t.pivotBounded(pr, pc, leaveToUpper); err != nil {
			if errors.Is(err, errNumerical) && t.numRetries < 3 {
				t.numRetries++
				continue // the factors were rebuilt; re-price and retry
			}
			return Optimal, err
		}
		t.numRetries = 0
		t.iters++
	}
}

// dual runs bounded-variable dual simplex pivots under cost vector c until
// the basis is primal feasible (returning Optimal, meaning "proceed to
// primal"), the problem is detected infeasible, or a limit is hit. It
// assumes the starting reduced costs are (near-)dual feasible — the
// warm-start invariant: d <= 0 at lower bounds, d >= 0 at upper bounds —
// and restores primal feasibility after tightened bounds or appended rows
// have invalidated the parent solution.
//
// Reduced costs are maintained incrementally across pivots (the basis-
// change update d'_j = d_j − (d_pc/α_pc)·α_j reuses the pivot row already
// computed for the ratio test) rather than re-priced from scratch each
// iteration; t.dFresh records whether t.d is valid on exit, letting the
// caller skip the primal phase when the final basis is already dual
// feasible.
func (t *rev) dual(c []float64) (Status, error) {
	t.dFresh = false
	// Most columns of the DSCT-EA models have zero reduced cost, so nearly
	// every dual pivot there is degenerate, and a warm re-solve can take up
	// to about m+n of them in a row without cycling. A cycle never ends, so
	// Bland's rule waits for a run several times that long: long enough
	// that no measured re-solve reaches it, short against the pivot budget.
	dualRunLimit := degenerateRunLimit + 4*(t.m+t.n)
	for {
		if st := t.limits(); st != Optimal {
			return st, nil
		}

		// Leaving row: the basic value furthest outside its column's box.
		// Below its lower bound it leaves to the lower bound; above its
		// (finite) upper bound it leaves to the upper bound.
		pr := -1
		toUpper := false
		if t.blandMode {
			// Bland's rule: the infeasible basic column of smallest index
			// leaves.
			for i := 0; i < t.m; i++ {
				bl, bh := t.lo[t.basis[i]], t.hi[t.basis[i]]
				below, above := t.xb[i] < bl-tol, t.xb[i] > bh+tol
				if (below || above) && (pr == -1 || t.basis[i] < t.basis[pr]) {
					pr, toUpper = i, above
				}
			}
		} else {
			viol := tol
			for i := 0; i < t.m; i++ {
				bl, bh := t.lo[t.basis[i]], t.hi[t.basis[i]]
				if v := bl - t.xb[i]; v > viol {
					viol = v
					pr, toUpper = i, false
				}
				if v := t.xb[i] - bh; v > viol {
					viol = v
					pr, toUpper = i, true
				}
			}
		}
		if pr == -1 {
			return Optimal, nil // primal feasible: hand over to primal clean-up
		}

		if !t.dFresh {
			t.prices(c)
			t.dFresh = true
		}
		t.pivotRow(pr)

		// Entering column: the bounded dual ratio test. Mapping each
		// candidate into the "at lower bound, leaving below lower" frame
		// (negate alpha when the row leaves to its upper bound; negate both
		// alpha and d when the candidate rests at its upper bound) reduces
		// every case to the classic test: candidates need effective
		// alpha < 0, and the minimum effective ratio d/alpha keeps every
		// reduced cost on its dual-feasible side after the update.
		pc := -1
		bestRatio := math.Inf(1)
		for j := 0; j < t.rw; j++ {
			if !t.eligible(j) {
				continue
			}
			aeff, deff := t.alpha[j], t.d[j]
			if toUpper {
				aeff = -aeff
			}
			if t.atUpper[j] {
				aeff, deff = -aeff, -deff
			}
			if aeff >= -tol {
				continue
			}
			ratio := deff / aeff
			if ratio < bestRatio-tol || (math.Abs(ratio-bestRatio) <= tol && (pc == -1 || j < pc)) {
				bestRatio = ratio
				pc = j
			}
		}
		if pc == -1 {
			// Row pr certifies primal infeasibility: every eligible
			// column moves the violated basic value the wrong way.
			return Infeasible, nil
		}

		t.ftran(pc)
		// Degeneracy in the dual is a zero dual step: the entering reduced
		// cost is already zero, so the dual objective does not move.
		t.trackDegenerate(bestRatio, dualRunLimit)
		f := t.d[pc] / t.alpha[pc] // basis-change step for the d update below
		if err := t.pivotBounded(pr, pc, toUpper); err != nil {
			if errors.Is(err, errNumerical) && t.numRetries < 3 {
				t.numRetries++
				t.dFresh = false // the factors were rebuilt; re-price next round
				continue
			}
			return Optimal, err
		}
		if t.sinceRefactor == 0 {
			// pivot refactorised; incremental d would no longer match the factors.
			t.dFresh = false
		} else {
			for j := 0; j < t.rw; j++ {
				t.d[j] -= f * t.alpha[j]
			}
			t.d[pc] = 0 // entering column: exactly zero by construction
		}
		t.numRetries = 0
		t.iters++
	}
}

// dualFeasible reports whether the current (fresh) reduced costs admit no
// entering column — d <= tol at lower bounds and d >= −tol at upper bounds
// — i.e. the basis is already optimal for the caller.
func (t *rev) dualFeasible() bool {
	for j := 0; j < t.rw; j++ {
		if !t.eligible(j) {
			continue
		}
		if t.atUpper[j] {
			if t.d[j] < -tol {
				return false
			}
		} else if t.d[j] > tol {
			return false
		}
	}
	return true
}

// artificialValue sums |value| over basic artificial columns.
func (t *rev) artificialValue() float64 {
	var s float64
	for i := 0; i < t.m; i++ {
		if t.basis[i] >= t.n+t.m {
			s += math.Abs(t.xb[i])
		}
	}
	return s
}

// freezeArtificials clamps every artificial column to [0, 0] — after a
// feasible phase 1 (or for a warm start, which never runs one) they may
// persist basic at zero in redundant rows but can never carry value again.
func (t *rev) freezeArtificials() {
	for j := t.rw; j < t.width; j++ {
		t.hi[j] = 0
	}
}

// driveOutArtificials pivots basic artificials (at value zero after a
// feasible phase 1) out of the basis wherever a usable pivot exists; rows
// with none are redundant and keep their artificial basic, protected at
// zero once freezeArtificials clamps their box.
func (t *rev) driveOutArtificials() error {
	artBase := t.n + t.m
	for i := 0; i < t.m; i++ {
		if t.basis[i] < artBase {
			continue
		}
		t.pivotRow(i)
		for j := 0; j < artBase; j++ {
			if !t.eligible(j) {
				continue
			}
			if math.Abs(t.alpha[j]) > tol*100 {
				t.ftran(j)
				if err := t.pivotBounded(i, j, false); err != nil && !errors.Is(err, errNumerical) {
					return err
				}
				break
			}
		}
	}
	return nil
}

// finish assembles the public Solution (and, at optimality, the Basis
// snapshot) from the final state. Nonbasic structural variables sit at
// their recorded bound; basic values get roundoff residue near a bound
// snapped onto it (the bounded generalisation of the old snap-to-zero:
// downstream integrality checks treat any off-bound value as fractional).
//
//lint:freezer assembles the published Basis snapshot before returning it
func (t *rev) finish(p *Problem, status Status) (*Solution, *Basis) {
	sol := t.bareSolution(status)
	if status != Optimal && status != IterLimit && status != TimeLimit {
		return sol, nil
	}
	var x []float64
	if t.noEscape {
		t.xOut = grown(t.xOut, p.nVars)
		x = t.xOut
	} else {
		x = make([]float64, p.nVars)
	}
	for v := 0; v < p.nVars; v++ {
		x[v] = t.nbVal(v)
	}
	for i := 0; i < t.m; i++ {
		if v := t.basis[i]; v < p.nVars {
			val := t.xb[i]
			if bl := t.lo[v]; math.Abs(val-bl) < tol*100 {
				val = bl
			} else if bh := t.hi[v]; !math.IsInf(bh, 1) && math.Abs(val-bh) < tol*100 {
				val = bh
			}
			x[v] = val
		}
	}
	sol.X = x
	for v, c := range p.obj {
		sol.Objective += c * x[v]
	}
	if status != Optimal || t.noEscape {
		return sol, nil
	}
	// Hand the factors over without copying: a Basis is immutable, and the
	// rev never pivots after finish (it may still price read-only, which is
	// how SolveBasisWithDuals extracts duals). The factors are frozen (eta
	// slices clipped) so every solver that adopts them appends
	// copy-on-write.
	bs := &Basis{
		nVars:   t.n,
		entries: make([]basisEntry, t.m),
		atUpper: append([]bool(nil), t.atUpper[:t.n]...),
		fac:     t.lu.freeze(),
		age:     t.sinceRefactor,
	}
	for i := 0; i < t.m; i++ {
		bs.entries[i] = entryForColumn(t.basis[i], t.n, t.m)
	}
	return sol, bs
}

// bareSolution returns the Solution shell for this solve: the solver-owned
// output struct in noEscape mode (aliased per the Workspace contract,
// lazily allocated so Reset can relinquish it), a fresh one otherwise.
func (t *rev) bareSolution(status Status) *Solution {
	if t.noEscape {
		if t.solOut == nil {
			t.solOut = new(Solution)
		}
		*t.solOut = Solution{Status: status, Iterations: t.iters}
		return t.solOut
	}
	return &Solution{Status: status, Iterations: t.iters}
}

// Solve solves p from scratch with the two-phase bounded-variable primal
// simplex. It returns exactly the Solution SolveBasis returns; call
// SolveBasis when the optimal basis is wanted as a warm-start token.
func Solve(p *Problem, opts Options) (*Solution, error) {
	sol, _, err := SolveBasis(p, opts)
	return sol, err
}

// SolveBasis solves p from scratch like Solve and additionally returns the
// optimal basis for use as a warm start by SolveFrom. The Basis is nil
// unless the status is Optimal.
func SolveBasis(p *Problem, opts Options) (*Solution, *Basis, error) {
	_, sol, bs, err := solveBasisRev(p, opts)
	return sol, bs, err
}

// solveBasisRev is SolveBasis returning the final solver state as well,
// for callers that extract more than the Solution (SolveBasisWithDuals).
// The returned rev is nil when the solve errored out early.
func solveBasisRev(p *Problem, opts Options) (*rev, *Solution, *Basis, error) {
	t := newRev(p, opts)
	sol, bs, err := t.solveCold(p)
	if err != nil {
		return nil, nil, nil, err
	}
	return t, sol, bs, nil
}

// solveCold runs the two-phase cold solve on an initialised solver. The
// package-level paths call it through solveBasisRev on a fresh rev; a
// Workspace calls it directly on its persistent one.
//
//lint:hotpath=bounded one cold solve on a warmed workspace allocates only in finish's escape paths; the AllocsPerRun pins hold the noEscape steady state at zero
func (t *rev) solveCold(p *Problem) (*Solution, *Basis, error) {
	// Initial point: every structural column at its lower bound. Rows whose
	// residual q is negative (or that are equalities) start with their
	// signed artificial basic at |q| >= 0; the rest use their logical.
	t.colsBuf = grown(t.colsBuf, t.m)
	cols := t.colsBuf
	needPhase1 := false
	for i := range cols {
		if t.hi[t.n+i] <= t.lo[t.n+i] || t.q[i] < 0 {
			cols[i] = t.n + t.m + i // EQ row, or logical would start negative
			needPhase1 = true
		} else {
			cols[i] = t.n + i
		}
	}
	t.setBasis(cols)
	if err := t.refactorize(); err != nil {
		return nil, nil, err
	}

	if needPhase1 {
		t.costBuf = grown(t.costBuf, t.width)
		phase1 := t.costBuf
		for j := t.n + t.m; j < t.width; j++ {
			phase1[j] = -1
		}
		status, err := t.primal(phase1)
		if err != nil {
			return nil, nil, err
		}
		switch status {
		case IterLimit, TimeLimit:
			return t.bareSolution(status), nil, nil
		case Unbounded:
			// Phase 1 is bounded by construction; treat as numerical failure.
			return t.bareSolution(Infeasible), nil, nil
		}
		if t.artificialValue() > feasTol {
			return t.bareSolution(Infeasible), nil, nil
		}
		if err := t.driveOutArtificials(); err != nil {
			return nil, nil, err
		}
	}
	t.freezeArtificials()

	t.costBuf = grown(t.costBuf, t.width)
	phase2 := t.costBuf
	copy(phase2, p.obj)
	status, err := t.primal(phase2)
	if err != nil {
		return nil, nil, err
	}
	sol, bs := t.finish(p, status)
	sol.DualFeasible = sol.Status == Optimal
	return sol, bs, nil
}

// SolveFrom solves p warm-started from a basis produced by a previous
// SolveBasis/SolveFrom on a related problem: p's first from.NumVars()
// variables must be the variables of the producing problem (any further
// ones are treated as newly appended columns and start nonbasic at their
// lower bound), its first from.NumRows() rows must be identical to the
// rows of the producing problem, and any further rows are treated as newly
// appended (their logical columns complete the starting basis). Variable
// bounds may differ from the producing problem's — the usual warm-start
// delta is a branch-and-bound child that only tightened one box — since a
// bound change never disturbs dual feasibility of the inherited basis: the
// nonbasic-at-bound state is restored from the snapshot and each nonbasic
// column simply rests on the child's (moved) bound. A dual simplex phase
// repairs the primal infeasibility the new bounds or rows introduce, then
// primal simplex finishes to optimality.
//
// It returns an error when the basis does not fit p or has become
// numerically singular; callers should fall back to a cold solve then.
//
//lint:hotpath=bounded one warm re-solve allocates only the solver workspace; the AllocsPerRun ceiling pins it
func SolveFrom(p *Problem, from *Basis, opts Options) (*Solution, *Basis, error) {
	if err := checkBasisFit(p, from); err != nil {
		return nil, nil, err
	}
	t := newRev(p, opts)
	return t.solveFrom(p, from)
}

// checkBasisFit validates that from can warm-start p: no more basis
// variables than p has (columns appended after the snapshot start nonbasic
// at their lower bound, so a basis over fewer variables still describes a
// valid starting point), and no more basis rows than p has constraints.
// Shared by the package-level and Workspace warm-start entry points.
func checkBasisFit(p *Problem, from *Basis) error {
	if from == nil {
		return errors.New("lp: SolveFrom with nil basis")
	}
	if from.nVars > p.nVars {
		return fmt.Errorf("lp: basis is over %d variables, problem only has %d", from.nVars, p.nVars)
	}
	if len(from.entries) > p.NumConstraints() {
		return fmt.Errorf("lp: basis has %d rows, problem only %d", len(from.entries), p.NumConstraints())
	}
	return nil
}

// solveFrom runs the warm-started solve on an initialised solver; see
// SolveFrom for the semantics. The caller has already run checkBasisFit.
//
//lint:hotpath=bounded one warm re-solve on a warmed workspace allocates only in finish's escape paths; the AllocsPerRun pins hold the noEscape steady state at zero
func (t *rev) solveFrom(p *Problem, from *Basis) (*Solution, *Basis, error) {
	m := t.m
	t.freezeArtificials() // artificials may persist basic at zero, never grow

	t.colsBuf = grown(t.colsBuf, m)
	cols := t.colsBuf
	t.seenCols = grown(t.seenCols, t.width)
	seen := t.seenCols
	for i, e := range from.entries {
		if e.idx < 0 || (e.kind == basisStructural && e.idx >= t.n) || (e.kind != basisStructural && e.idx >= m) {
			return nil, nil, fmt.Errorf("lp: basis entry %d out of range", i)
		}
		col := e.column(t.n, m)
		if seen[col] {
			return nil, nil, fmt.Errorf("lp: duplicate basic column %d", col)
		}
		seen[col] = true
		cols[i] = col
	}
	for i := len(from.entries); i < m; i++ {
		cols[i] = t.n + i // appended rows start with their logical basic
	}
	t.setBasis(cols)
	// Restore nonbasic-at-bound state for structural columns, guarded by
	// the child's boxes: at-upper needs a finite upper bound here (a child
	// may have relaxed a bound the parent rested on). Columns appended
	// after the snapshot (v >= len(from.atUpper)) rest at their lower
	// bound.
	if from.atUpper != nil {
		vn := t.n
		if len(from.atUpper) < vn {
			vn = len(from.atUpper)
		}
		for v := 0; v < vn; v++ {
			if from.atUpper[v] && !t.inBasis[v] && !math.IsInf(t.hi[v], 1) {
				t.atUpper[v] = true
			}
		}
	}
	t.recomputeQ() // fold the restored nonbasic values into q
	inherited := t.inheritFactor(from)
	if !inherited {
		if err := t.refactorize(); err != nil {
			return nil, nil, err
		}
	}

	t.costBuf = grown(t.costBuf, t.width)
	cost := t.costBuf
	copy(cost, p.obj)

	status, err := t.dual(cost)
	if err != nil {
		return nil, nil, err
	}
	// A limit struck inside the dual phase leaves the basis dual feasible
	// (the dual simplex preserves it pivot by pivot), so the truncated
	// objective is still a valid upper bound — recorded on the Solution for
	// strong-branching probes. Capture the flag before the primal clean-up
	// can overwrite status: a primal-phase limit carries no such guarantee.
	dualLimited := status == IterLimit || status == TimeLimit
	// The dual phase preserves dual feasibility, so when it ends primal
	// feasible with up-to-date reduced costs the basis is already optimal
	// and the primal clean-up (one full pricing pass) can be skipped.
	if status == Optimal && !(t.dFresh && t.dualFeasible()) {
		status, err = t.primal(cost)
		if err != nil {
			return nil, nil, err
		}
	}
	sol, bs := t.finish(p, status)
	sol.FactorRebuilt = !inherited
	sol.DualFeasible = dualLimited || sol.Status == Optimal
	return sol, bs, nil
}
