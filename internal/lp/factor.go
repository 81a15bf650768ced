package lp

// Sparse LU factorisation of the simplex basis, with an eta file for
// product-form updates: the simplex core's basis representation. Instead
// of an explicit dense m×m B⁻¹ — O(m³) Gauss–Jordan refactorisation, O(m²)
// per pivot, m² floats per warm-start snapshot — it keeps B = Pᵀ·L·U·Qᵀ as
// two sparse triangular factors plus a short product-form eta file, so
//
//   - FTRAN (w = B⁻¹a) and BTRAN (yᵀ = cᵦᵀB⁻¹) are triangular solves that
//     skip structural zeros: O(nnz(L+U) + nnz(etas)) per application;
//   - a pivot appends one eta vector (the entering direction already
//     computed for the ratio test) instead of rewriting m² entries;
//   - refactorisation is right-looking elimination with Markowitz ordering
//     and threshold pivoting — near-O(nnz) on the staircase bases the
//     paper's EDF instances produce — triggered adaptively by eta-file
//     fill and a numerical-drift check rather than a fixed pivot count;
//   - a warm-start snapshot shares the immutable L/U with every child that
//     inherits it (O(1) adoption), instead of copying an m² inverse.
//
// Coordinate conventions. Basis matrix columns are indexed by basis
// position (the slot in rev.basis), rows by constraint row. The
// factorisation permutes both: rowOf/posOfRow map elimination step k to
// the pivoted constraint row and back, colOf/posOfCol do the same for
// basis positions. L and U are stored column-wise in elimination
// coordinates; L has an implicit unit diagonal, U keeps its diagonal in
// uDiag. Column-wise storage serves both directions: FTRAN scatters down
// columns, BTRAN gathers up them.

import "math"

const (
	// markowitzTau is the threshold-pivoting tolerance: a pivot candidate
	// must have magnitude at least markowitzTau times its column's largest,
	// trading a bounded amount of growth for sparsity in the factors.
	markowitzTau = 0.1
	// markowitzSearch bounds the candidate columns examined per pivot once
	// a usable candidate is in hand; Markowitz cost is a heuristic, so an
	// exhaustive scan buys little over the first few low-count columns.
	markowitzSearch = 8
	// etaFillRows/etaFillLU define the adaptive refactorisation trigger:
	// the eta file may hold at most etaFillRows·m + etaFillLU·nnz(LU)
	// nonzeros before the factors are rebuilt — beyond that, applying the
	// etas costs more than a fresh near-O(nnz) factorisation would save.
	etaFillRows = 4
	etaFillLU   = 2
	// driftCheckEvery is the pivot cadence of the numerical-drift check on
	// the eta path: every driftCheckEvery pivots the basic values are
	// verified against B·xb ≈ q and the factors rebuilt on failure.
	driftCheckEvery = 16
)

// luFactor is a sparse LU factorisation of one basis matrix plus the eta
// file of product-form updates applied since. A frozen luFactor (see
// freeze) is immutable and safe to share across goroutines; appendEta may
// only be called by the single solver that owns the factor.
type luFactor struct {
	//lint:frozen dimension is fixed at factorisation
	m int

	//lint:frozen permutation backing is shared by every frozen snapshot
	rowOf []int // elimination step -> constraint row
	//lint:frozen permutation backing is shared by every frozen snapshot
	posOfRow []int // constraint row -> elimination step
	//lint:frozen permutation backing is shared by every frozen snapshot
	colOf []int // elimination step -> basis position
	//lint:frozen permutation backing is shared by every frozen snapshot
	posOfCol []int // basis position -> elimination step

	// L: unit lower triangular, column-wise, elimination coordinates;
	// column k holds the step-k multipliers (row indices > k).
	//
	//lint:frozen L is never mutated after factorisation and shared as-is
	lPtr []int
	//lint:frozen L is never mutated after factorisation and shared as-is
	lIdx []int
	//lint:frozen L is never mutated after factorisation and shared as-is
	lVal []float64
	// U: upper triangular, column-wise; column k holds entries above the
	// diagonal (row indices < k), the diagonal lives in uDiag.
	//
	//lint:frozen U is never mutated after factorisation and shared as-is
	uPtr []int
	//lint:frozen U is never mutated after factorisation and shared as-is
	uIdx []int
	//lint:frozen U is never mutated after factorisation and shared as-is
	uVal []float64
	//lint:frozen U is never mutated after factorisation and shared as-is
	uDiag []float64

	//lint:frozen fixed at factorisation
	nnzLU int // total stored nonzeros of L and U including the diagonal

	// Eta file: update e appended at basis position etaPos[e] transforms
	// B into B·E with E = I except column etaPos[e] = w (the entering
	// direction). etaDiag[e] = w[etaPos[e]]; the off-diagonal nonzeros of
	// w live in etaIdx/etaVal[etaPtr[e]:etaPtr[e+1]].
	//
	//lint:frozen eta backing may be shared with frozen siblings; only appendEta may grow it
	etaPos []int
	//lint:frozen eta backing may be shared with frozen siblings; only appendEta may grow it
	etaDiag []float64
	//lint:frozen eta backing may be shared with frozen siblings; only appendEta may grow it
	etaPtr []int // len(etaPos)+1 offsets into etaIdx/etaVal
	//lint:frozen eta backing may be shared with frozen siblings; only appendEta may grow it
	etaIdx []int
	//lint:frozen eta backing may be shared with frozen siblings; only appendEta may grow it
	etaVal []float64
}

// nEtas returns the number of product-form updates absorbed.
func (f *luFactor) nEtas() int { return len(f.etaPos) }

// etaNnz returns the stored nonzero count of the eta file.
func (f *luFactor) etaNnz() int { return len(f.etaPos) + len(f.etaIdx) }

// fillHeavy reports that the eta file has outgrown the factors and a
// refactorisation is cheaper than continuing to apply it.
func (f *luFactor) fillHeavy() bool {
	return f.etaNnz() > etaFillRows*f.m+etaFillLU*f.nnzLU
}

// appendEta records the product-form update of a pivot at basis position r
// with entering direction w = B⁻¹A_pc (position space, length m).
//
//lint:freezer the owning solver's eta append is the copy-on-write growth point
//lint:hotpath one append per pivot; arena growth is amortised and pinned to zero steady-state allocations
func (f *luFactor) appendEta(r int, w []float64) {
	f.etaPos = append(f.etaPos, r)
	f.etaDiag = append(f.etaDiag, w[r])
	for i, wi := range w {
		if i != r && wi != 0 {
			f.etaIdx = append(f.etaIdx, i)
			f.etaVal = append(f.etaVal, wi)
		}
	}
	f.etaPtr = append(f.etaPtr, len(f.etaIdx))
}

// freeze returns a snapshot of f that is safe to share: the eta slices are
// clipped to their length, so a solver that later inherits the snapshot
// and appends an eta forces a copy-on-write reallocation instead of
// scribbling over a backing array shared with sibling solvers. L and U are
// never mutated after factorisation, so they are shared as-is.
//
//lint:freezer clips the slice headers of a local copy; the shared backing is untouched
func (f *luFactor) freeze() *luFactor {
	c := *f
	c.etaPos = c.etaPos[:len(c.etaPos):len(c.etaPos)]
	c.etaDiag = c.etaDiag[:len(c.etaDiag):len(c.etaDiag)]
	c.etaPtr = c.etaPtr[:len(c.etaPtr):len(c.etaPtr)]
	c.etaIdx = c.etaIdx[:len(c.etaIdx):len(c.etaIdx)]
	c.etaVal = c.etaVal[:len(c.etaVal):len(c.etaVal)]
	return &c
}

// ftran solves B·x = rhs: rhs is in row space, the result (written to out)
// in basis-position space. work is an m-length scratch slice owned by the
// caller — the factor itself is stateless so frozen snapshots can serve
// many solvers at once. Structural zeros are skipped throughout.
//
//lint:hotpath one triangular solve per pivot per node; pinned to zero allocations
func (f *luFactor) ftran(rhs, out, work []float64) {
	m := f.m
	for k := 0; k < m; k++ {
		work[k] = rhs[f.rowOf[k]]
	}
	// Forward solve L·z = P·rhs, scattering down column k.
	for k := 0; k < m; k++ {
		v := work[k]
		if v == 0 {
			continue
		}
		for t := f.lPtr[k]; t < f.lPtr[k+1]; t++ {
			work[f.lIdx[t]] -= f.lVal[t] * v
		}
	}
	// Backward solve U·x̃ = z, scattering up column k.
	for k := m - 1; k >= 0; k-- {
		v := work[k]
		if v == 0 {
			continue
		}
		v /= f.uDiag[k]
		work[k] = v
		for t := f.uPtr[k]; t < f.uPtr[k+1]; t++ {
			work[f.uIdx[t]] -= f.uVal[t] * v
		}
	}
	for k := 0; k < m; k++ {
		out[f.colOf[k]] = work[k]
	}
	// Eta file, oldest first: B = B₀·E₁⋯E_e, so B⁻¹ applies E⁻¹ in
	// chronological order after the factor solve.
	for e := 0; e < len(f.etaPos); e++ {
		r := f.etaPos[e]
		pv := out[r]
		if pv == 0 {
			continue
		}
		pv /= f.etaDiag[e]
		for t := f.etaPtr[e]; t < f.etaPtr[e+1]; t++ {
			out[f.etaIdx[t]] -= f.etaVal[t] * pv
		}
		out[r] = pv
	}
}

// btran solves yᵀ·B = cᵀ: c is in basis-position space, the result
// (written to out) in row space. work and cw are m-length scratch slices
// owned by the caller; c is not modified.
//
//lint:hotpath one transposed solve per pricing pass; pinned to zero allocations
func (f *luFactor) btran(c, out, work, cw []float64) {
	m := f.m
	copy(cw, c)
	// Eta transposes, newest first: cᵀ·E_e⁻¹ touches only position r.
	for e := len(f.etaPos) - 1; e >= 0; e-- {
		r := f.etaPos[e]
		s := cw[r]
		for t := f.etaPtr[e]; t < f.etaPtr[e+1]; t++ {
			s -= cw[f.etaIdx[t]] * f.etaVal[t]
		}
		cw[r] = s / f.etaDiag[e]
	}
	for k := 0; k < m; k++ {
		work[k] = cw[f.colOf[k]]
	}
	// Forward solve Uᵀ·z = c̃, gathering up column k.
	for k := 0; k < m; k++ {
		s := work[k]
		for t := f.uPtr[k]; t < f.uPtr[k+1]; t++ {
			s -= f.uVal[t] * work[f.uIdx[t]]
		}
		work[k] = s / f.uDiag[k]
	}
	// Backward solve Lᵀ·ỹ = z, gathering down column k.
	for k := m - 1; k >= 0; k-- {
		s := work[k]
		for t := f.lPtr[k]; t < f.lPtr[k+1]; t++ {
			s -= f.lVal[t] * work[f.lIdx[t]]
		}
		work[k] = s
	}
	for k := 0; k < m; k++ {
		out[f.rowOf[k]] = work[k]
	}
}

// facEntry is one live nonzero of the active submatrix during elimination.
type facEntry struct {
	row int
	val float64
}

// facState is the right-looking elimination workspace of factorizeBasis.
// It is reusable: factorizeInto resets every slice in place, so a solver
// that owns a facState (a Workspace) refactorises without allocating once
// the buffers have grown to the largest basis seen.
type facState struct {
	m    int
	cols [][]facEntry // live nonzeros per basis-position column
	// rowCols[i] lists the columns that (at some point) held a nonzero in
	// row i; entries go stale when an update cancels the nonzero exactly
	// and are skipped lazily.
	rowCols [][]int
	rowCnt  []int // live nonzeros per row (Markowitz row counts)
	colCnt  []int // live nonzeros per column

	// Count buckets with lazy revalidation: a column is (re-)pushed
	// whenever its count changes; stale entries (count mismatch or already
	// pivoted) are discarded when popped. heads are persistent read
	// cursors — popped entries are either stale or re-pushed explicitly.
	buckets  [][]int
	heads    []int
	examined []int // columns popped but not pivoted this step; re-pushed

	// Multiplier scatter (generation-stamped dense scratch) for the rank-1
	// update of each column touched by the pivot row.
	mark []int
	mval []float64
	gen  int
	// Fill detection within one updated column.
	seen    []int
	seenGen int

	rowOf, posOfRow []int
	colOf, posOfCol []int

	lPtr []int
	lIdx []int // original row indices during elimination; remapped at the end
	lVal []float64
	// U collected row-wise during elimination (uRowIdx holds original
	// basis positions), transposed to column-wise at the end.
	uRowPtr []int
	uRowIdx []int
	uRowVal []float64
	uDiag   []float64

	counts []int // m+1 scratch for the final counting transpose of U
}

// reset prepares the workspace for an m×m elimination, reusing every
// backing array with sufficient capacity. Inner column/row lists keep
// their arenas: pivoted columns and rows are reslied to length zero
// during elimination instead of dropped, so repeat factorisations of
// same-shaped bases settle into zero allocations.
func (s *facState) reset(m int) {
	s.m = m
	if cap(s.cols) < m {
		s.cols = make([][]facEntry, m)
	} else {
		s.cols = s.cols[:m]
	}
	if cap(s.rowCols) < m {
		s.rowCols = make([][]int, m)
	} else {
		s.rowCols = s.rowCols[:m]
		for i := range s.rowCols {
			s.rowCols[i] = s.rowCols[i][:0]
		}
	}
	if cap(s.buckets) < m+1 {
		s.buckets = make([][]int, m+1)
	} else {
		s.buckets = s.buckets[:m+1]
		for c := range s.buckets {
			s.buckets[c] = s.buckets[c][:0]
		}
	}
	s.rowCnt = grown(s.rowCnt, m)
	s.colCnt = grown(s.colCnt, m)
	s.heads = grown(s.heads, m+1)
	s.examined = s.examined[:0]
	s.mark = grown(s.mark, m)
	s.mval = grown(s.mval, m)
	s.gen = 0
	s.seen = grown(s.seen, m)
	s.seenGen = 0
	s.rowOf = grown(s.rowOf, m)
	s.posOfRow = grown(s.posOfRow, m)
	s.colOf = grown(s.colOf, m)
	s.posOfCol = grown(s.posOfCol, m)
	s.lPtr = append(s.lPtr[:0], 0)
	s.lIdx = s.lIdx[:0]
	s.lVal = s.lVal[:0]
	s.uRowPtr = append(s.uRowPtr[:0], 0)
	s.uRowIdx = s.uRowIdx[:0]
	s.uRowVal = s.uRowVal[:0]
	s.uDiag = grown(s.uDiag, m)
	s.counts = grown(s.counts, m+1)
}

func (s *facState) pushCol(j int) {
	c := s.colCnt[j]
	s.buckets[c] = append(s.buckets[c], j)
}

// selectPivot scans the count buckets smallest-first for the candidate
// minimising the Markowitz cost (colCnt−1)·(rowCnt−1) subject to threshold
// pivoting, examining at most markowitzSearch columns once a candidate is
// in hand. Ties break toward the smaller column, then the smaller row, so
// the ordering — and with it the whole factorisation — is deterministic.
func (s *facState) selectPivot() (bp, bq int, bpv float64, ok bool) {
	s.examined = s.examined[:0]
	bestScore := int64(-1)
	examinedCnt := 0
	for cnt := 1; cnt <= s.m; cnt++ {
		for s.heads[cnt] < len(s.buckets[cnt]) {
			j := s.buckets[cnt][s.heads[cnt]]
			s.heads[cnt]++
			if s.posOfCol[j] >= 0 || s.colCnt[j] != cnt {
				continue // pivoted already, or a stale count entry
			}
			s.examined = append(s.examined, j)
			colmax := 0.0
			for _, e := range s.cols[j] {
				if a := math.Abs(e.val); a > colmax {
					colmax = a
				}
			}
			if colmax <= singularTol {
				continue // numerically empty for now; re-pushed after the pivot
			}
			thresh := markowitzTau * colmax
			for _, e := range s.cols[j] {
				a := math.Abs(e.val)
				if a < thresh || a <= singularTol {
					continue
				}
				score := int64(cnt-1) * int64(s.rowCnt[e.row]-1)
				if bestScore < 0 || score < bestScore ||
					(score == bestScore && (j < bq || (j == bq && e.row < bp))) {
					bestScore, bq, bp, bpv = score, j, e.row, e.val
				}
			}
			examinedCnt++
			if bestScore == 0 {
				return bp, bq, bpv, true // a perfect (fill-free) pivot
			}
			if bestScore >= 0 && examinedCnt >= markowitzSearch {
				return bp, bq, bpv, true
			}
		}
	}
	return bp, bq, bpv, bestScore >= 0
}

// factorizeBasis computes the sparse LU of an m×m basis matrix given
// column-wise (CSC-style: colPtr offsets basis positions into
// rowIdx/vals). It returns errSingular when no admissible pivot exists for
// some elimination step — a structurally or numerically singular basis.
//
//lint:freezer builds the factor's frozen arrays before publication
func factorizeBasis(m int, colPtr, rowIdx []int, vals []float64) (*luFactor, error) {
	var s facState
	f := &luFactor{}
	if err := s.factorizeInto(f, m, colPtr, rowIdx, vals); err != nil {
		return nil, err
	}
	return f, nil
}

// factorizeInto is factorizeBasis with explicit storage: the elimination
// runs entirely in s (reset in place), and the finished factor is written
// into f, reusing f's array capacity. f must not be aliased by any frozen
// snapshot (the Workspace's private factor store qualifies; a factor that
// has been through freeze does not). On error f is left untouched. The
// input CSC arrays are only read.
//
//lint:freezer builds the factor's arrays before publication; on reuse the caller owns f exclusively
func (s *facState) factorizeInto(f *luFactor, m int, colPtr, rowIdx []int, vals []float64) error {
	s.reset(m)
	if m == 0 {
		f.m = 0
		f.lPtr = append(f.lPtr[:0], 0)
		f.uPtr = grown(f.uPtr, 1)
		f.lIdx, f.lVal = f.lIdx[:0], f.lVal[:0]
		f.uIdx, f.uVal = f.uIdx[:0], f.uVal[:0]
		f.uDiag = f.uDiag[:0]
		f.rowOf, f.posOfRow = f.rowOf[:0], f.posOfRow[:0]
		f.colOf, f.posOfCol = f.colOf[:0], f.posOfCol[:0]
		f.nnzLU = 0
		f.resetEtas()
		return nil
	}
	for j := 0; j < m; j++ {
		s.posOfCol[j] = -1
		s.posOfRow[j] = -1
		lo, hi := colPtr[j], colPtr[j+1]
		col := s.cols[j][:0]
		for k := lo; k < hi; k++ {
			i, v := rowIdx[k], vals[k]
			if v == 0 {
				continue
			}
			col = append(col, facEntry{row: i, val: v})
			s.rowCols[i] = append(s.rowCols[i], j)
			s.rowCnt[i]++
		}
		s.cols[j] = col
		s.colCnt[j] = len(col)
		s.pushCol(j)
	}

	for k := 0; k < m; k++ {
		p, q, pv, ok := s.selectPivot()
		if !ok {
			return errSingular
		}
		s.rowOf[k], s.posOfRow[p] = p, k
		s.colOf[k], s.posOfCol[q] = q, k

		// L column k: the multipliers of the pivot column's other live
		// entries. Their (i, q) nonzeros leave the active matrix here.
		lstart := len(s.lIdx)
		for _, e := range s.cols[q] {
			if e.row == p {
				continue
			}
			s.lIdx = append(s.lIdx, e.row)
			s.lVal = append(s.lVal, e.val/pv)
			s.rowCnt[e.row]--
		}
		s.lPtr = append(s.lPtr, len(s.lIdx))
		s.uDiag[k] = pv
		s.cols[q] = s.cols[q][:0] // keep the arena for the next reset

		// Scatter the multipliers for the rank-1 update of every column
		// the pivot row touches.
		s.gen++
		for t := lstart; t < len(s.lIdx); t++ {
			s.mark[s.lIdx[t]] = s.gen
			s.mval[s.lIdx[t]] = s.lVal[t]
		}

		// U row k: walk the pivot row's columns, extract the pivot-row
		// entry (it becomes a U nonzero) and apply the update to the rest
		// of the column, dropping exact cancellations and adding fill.
		for _, j := range s.rowCols[p] {
			if s.posOfCol[j] >= 0 {
				continue // pivoted already (including q itself)
			}
			es := s.cols[j]
			u := 0.0
			found := false
			for idx, e := range es {
				if e.row == p {
					u = e.val
					es[idx] = es[len(es)-1]
					es = es[:len(es)-1]
					found = true
					break
				}
			}
			if !found {
				continue // stale rowCols entry: cancelled to exact zero earlier
			}
			s.uRowIdx = append(s.uRowIdx, j)
			s.uRowVal = append(s.uRowVal, u)
			if lstart == len(s.lIdx) {
				// No multipliers: removal of the pivot-row entry is the
				// whole update.
				s.cols[j] = es
				s.colCnt[j] = len(es)
				s.pushCol(j)
				continue
			}
			out := es[:0]
			s.seenGen++
			for _, e := range es {
				if s.mark[e.row] == s.gen {
					e.val -= s.mval[e.row] * u
					s.seen[e.row] = s.seenGen
					if e.val == 0 {
						s.rowCnt[e.row]--
						continue
					}
				}
				out = append(out, e)
			}
			for t := lstart; t < len(s.lIdx); t++ {
				i := s.lIdx[t]
				if s.seen[i] != s.seenGen {
					out = append(out, facEntry{row: i, val: -s.lVal[t] * u})
					s.rowCnt[i]++
					s.rowCols[i] = append(s.rowCols[i], j)
				}
			}
			s.cols[j] = out
			s.colCnt[j] = len(out)
			s.pushCol(j)
		}
		s.uRowPtr = append(s.uRowPtr, len(s.uRowIdx))
		s.rowCols[p] = s.rowCols[p][:0] // keep the arena for the next reset

		// Columns examined but not chosen stay live; requeue them.
		for _, j := range s.examined {
			if s.posOfCol[j] < 0 {
				s.pushCol(j)
			}
		}
	}

	// Remap L's row indices into elimination coordinates (every multiplier
	// row pivots at a later step, so posOfRow is final by now).
	for t := range s.lIdx {
		s.lIdx[t] = s.posOfRow[s.lIdx[t]]
	}
	f.m = m
	f.lPtr = taken(f.lPtr, s.lPtr)
	f.lIdx = taken(f.lIdx, s.lIdx)
	f.lVal = taken(f.lVal, s.lVal)
	f.uDiag = taken(f.uDiag, s.uDiag)
	f.rowOf = taken(f.rowOf, s.rowOf)
	f.posOfRow = taken(f.posOfRow, s.posOfRow)
	f.colOf = taken(f.colOf, s.colOf)
	f.posOfCol = taken(f.posOfCol, s.posOfCol)

	// Counting transpose of U from rows to columns, remapping column
	// indices into elimination coordinates; scattering in step order keeps
	// each column's row indices ascending.
	counts := s.counts
	for _, j := range s.uRowIdx {
		counts[s.posOfCol[j]+1]++
	}
	for k := 0; k < m; k++ {
		counts[k+1] += counts[k]
	}
	f.uPtr = taken(f.uPtr, counts)
	f.uIdx = grown(f.uIdx, len(s.uRowIdx))
	f.uVal = grown(f.uVal, len(s.uRowIdx))
	next := counts
	for k := 0; k < m; k++ {
		for t := s.uRowPtr[k]; t < s.uRowPtr[k+1]; t++ {
			c := s.posOfCol[s.uRowIdx[t]]
			f.uIdx[next[c]] = k
			f.uVal[next[c]] = s.uRowVal[t]
			next[c]++
		}
	}
	f.nnzLU = len(f.lIdx) + len(f.uIdx) + m
	f.resetEtas()
	return nil
}

// resetEtas empties f's eta file in place, keeping the arenas. The caller
// must own f exclusively (never call this on a frozen snapshot).
//
//lint:freezer reslices an unpublished factor's own eta arenas
func (f *luFactor) resetEtas() {
	f.etaPos = f.etaPos[:0]
	f.etaDiag = f.etaDiag[:0]
	f.etaPtr = append(f.etaPtr[:0], 0)
	f.etaIdx = f.etaIdx[:0]
	f.etaVal = f.etaVal[:0]
}

// copyFrom deep-copies src into f, reusing f's array capacity, with the
// eta slices given append slack — the adopting solver appends
// copy-on-write-free because the arenas are its own. Used by the
// Workspace's no-escape warm start to adopt a parent's frozen factor
// without inheriting its shared (clipped) backing.
//
//lint:freezer deep-copies into an unpublished caller-owned factor; src is only read
func (f *luFactor) copyFrom(src *luFactor) {
	f.m = src.m
	f.lPtr = taken(f.lPtr, src.lPtr)
	f.lIdx = taken(f.lIdx, src.lIdx)
	f.lVal = taken(f.lVal, src.lVal)
	f.uPtr = taken(f.uPtr, src.uPtr)
	f.uIdx = taken(f.uIdx, src.uIdx)
	f.uVal = taken(f.uVal, src.uVal)
	f.uDiag = taken(f.uDiag, src.uDiag)
	f.rowOf = taken(f.rowOf, src.rowOf)
	f.posOfRow = taken(f.posOfRow, src.posOfRow)
	f.colOf = taken(f.colOf, src.colOf)
	f.posOfCol = taken(f.posOfCol, src.posOfCol)
	f.nnzLU = src.nnzLU
	f.etaPos = taken(f.etaPos, src.etaPos)
	f.etaDiag = taken(f.etaDiag, src.etaDiag)
	f.etaPtr = taken(f.etaPtr, src.etaPtr)
	f.etaIdx = taken(f.etaIdx, src.etaIdx)
	f.etaVal = taken(f.etaVal, src.etaVal)
}
