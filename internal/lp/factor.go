package lp

// Sparse LU factorisation of the simplex basis, with an eta file for
// product-form updates: the simplex core's basis representation. Instead
// of an explicit dense m×m B⁻¹ — O(m³) Gauss–Jordan refactorisation, O(m²)
// per pivot, m² floats per warm-start snapshot — it keeps B = Pᵀ·L·U·Qᵀ as
// two sparse triangular factors plus a short product-form eta file, so
//
//   - FTRAN (w = B⁻¹a) and BTRAN (yᵀ = cᵦᵀB⁻¹) are triangular solves that
//     skip the vector's zeros, so beyond a few O(m) passes they cost the
//     factor entries the vector's nonzeros reach, not nnz(L+U) + nnz(etas);
//     BTRAN applies the eta file over the vector's support while it is
//     hyper-sparse (Hall and McKinnon, 2005);
//   - a pivot appends one eta vector (the entering direction already
//     computed for the ratio test) instead of rewriting m² entries;
//   - refactorisation is right-looking elimination with Markowitz ordering
//     and threshold pivoting — near-O(nnz) on the staircase bases the
//     paper's EDF instances produce — triggered adaptively by eta-file
//     fill and a numerical-drift check rather than a fixed pivot count;
//   - a warm-start snapshot shares the immutable L/U with every child that
//     inherits it (O(1) adoption), instead of copying an m² inverse;
//   - a child whose problem gained rows extends the snapshot instead of
//     refactorising. Its basis is B′ = [[B, 0], [C, I]]: the appended rows'
//     logicals are basic, and C holds the new rows' entries on the old
//     basic columns. B′ = [[B, 0], [0, I]]·[[I, 0], [C, I]], so the factor
//     gains one identity elimination step per new row (extend) and the eta
//     file one unit eta per old basic column C reaches (appendUnitEta);
//     FTRAN, BTRAN and appendEta run on the result unchanged.
//
// Coordinate conventions. Basis matrix columns are indexed by basis
// position (the slot in rev.basis), rows by constraint row. The
// factorisation permutes both: rowOf/posOfRow map elimination step k to
// the pivoted constraint row and back, colOf/posOfCol do the same for
// basis positions. L and U are stored column-wise in elimination
// coordinates; L has an implicit unit diagonal, U keeps its diagonal in
// uDiag. FTRAN scatters down the columns of both. BTRAN gathers down L's
// columns and scatters along U's rows, from a row-wise copy of U that the
// solver keeps beside the factor (btranScratch), since frozen factors are
// shared between solvers.
//
// Every kernel computes each element bit for bit as its dense form would:
// a skipped term is always an exact-zero product (a zero result may differ
// in sign), and the terms that remain are summed in the same order.

import (
	"math"
	"slices"
)

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
	// btranHyperDiv sets BTRAN's hyper-sparse threshold: while the
	// vector's support holds at most m/btranHyperDiv positions, the eta
	// file is applied over the support; past it, the rest of the file is
	// scanned in full (Hall and McKinnon's 10% density).
	btranHyperDiv = 10
	// etaSearchMin is the number of eta entries per support position
	// below which scanning the eta outright is cheaper than a binary
	// search per position.
	etaSearchMin = 8
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

	// scales are the equilibration scales of the m rows the factor was
	// computed under. Scaling a row changes the basis matrix, and when the
	// row's q_i is 0 the residual check cannot see it, so adoption compares
	// them with the solving problem's.
	//
	//lint:frozen recorded at factorisation and shared by every frozen snapshot
	scales []float64

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
// with entering direction w = B⁻¹A_pc (position space, length m), whose
// nonzeros sit at the ascending positions nz: O(nnz(w)).
//
//lint:freezer the owning solver's eta append is the copy-on-write growth point
//lint:hotpath one append per pivot; arena growth is amortised and pinned to zero steady-state allocations
func (f *luFactor) appendEta(r int, w []float64, nz []int) {
	f.etaPos = append(f.etaPos, r)
	f.etaDiag = append(f.etaDiag, w[r])
	for _, i := range nz {
		if i != r {
			f.etaIdx = append(f.etaIdx, i)
			f.etaVal = append(f.etaVal, w[i])
		}
	}
	f.etaPtr = append(f.etaPtr, len(f.etaIdx))
}

// extend grows f, a factor of a basis B over its f.m rows, into the factor
// of [[B, 0], [0, I]] over m rows: each appended row k enters as an
// identity elimination step (row k, basis position k, empty L and U
// columns, unit diagonal), so the permutations extend by the identity,
// lPtr and uPtr repeat their last offset and L's and U's entries are
// untouched. scales are the appended rows' equilibration scales. The eta
// file keeps its updates, which act on the leading positions only.
//
// A frozen snapshot shares the extended arrays, so unless own reports
// that f's arrays are the caller's alone (the Workspace's private copy),
// the extension is written into fresh arrays — two allocations — and
// never appended in place.
//
//lint:freezer extends the solver's adopted copy into fresh arrays, or an owned factor in place
func (f *luFactor) extend(m int, scales []float64, own bool) {
	m0 := f.m
	if !own {
		ints := make([]int, 6*m+2)
		f.rowOf = append(ints[:0:m], f.rowOf...)
		f.posOfRow = append(ints[m:m:2*m], f.posOfRow...)
		f.colOf = append(ints[2*m:2*m:3*m], f.colOf...)
		f.posOfCol = append(ints[3*m:3*m:4*m], f.posOfCol...)
		f.lPtr = append(ints[4*m:4*m:5*m+1], f.lPtr...)
		f.uPtr = append(ints[5*m+1:5*m+1:6*m+2], f.uPtr...)
		floats := make([]float64, 2*m)
		f.uDiag = append(floats[:0:m], f.uDiag...)
		f.scales = append(floats[m:m:2*m], f.scales...)
	}
	for k := m0; k < m; k++ {
		f.rowOf = append(f.rowOf, k)
		f.posOfRow = append(f.posOfRow, k)
		f.colOf = append(f.colOf, k)
		f.posOfCol = append(f.posOfCol, k)
		f.lPtr = append(f.lPtr, f.lPtr[m0])
		f.uPtr = append(f.uPtr, f.uPtr[m0])
		f.uDiag = append(f.uDiag, 1)
	}
	f.scales = append(f.scales, scales...)
	f.nnzLU += m - m0
	f.m = m
}

// appendUnitEta records the update B·E with E = I except column r =
// e_r + Σ_k val[k]·e_idx[k]: an eta with unit pivot whose off-diagonal
// entries sit at the ascending positions idx. Exact zeros are skipped.
//
//lint:freezer appends to the owning solver's eta file, copy-on-write like appendEta
func (f *luFactor) appendUnitEta(r int, idx []int, val []float64) {
	f.etaPos = append(f.etaPos, r)
	f.etaDiag = append(f.etaDiag, 1)
	for k, i := range idx {
		if v := val[k]; v != 0 {
			f.etaIdx = append(f.etaIdx, i)
			f.etaVal = append(f.etaVal, v)
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
// owned by the caller, and s is the caller's btranScratch loaded for f;
// c is not modified. The eta and Uᵀ stages cost the entries the vector's
// nonzeros reach, not the factor's nonzero count, while every element
// comes out bit for bit as the column-gather form computes it: a skipped
// term is always an exact-zero product, and the terms that remain are
// subtracted in the same ascending order.
//
//lint:hotpath one transposed solve per pricing pass; pinned to zero allocations
func (f *luFactor) btran(c, out, work, cw []float64, s *btranScratch) {
	m := f.m
	// The support: ascending basis positions that may hold a nonzero of cw,
	// tracked while it stays within the hyper-sparse threshold.
	maxSupp := m / btranHyperDiv
	supp := s.supp[:0]
	sparse := true
	for i, ci := range c[:m] {
		cw[i] = ci
		if ci != 0 && sparse {
			if len(supp) < maxSupp {
				supp = append(supp, i)
			} else {
				sparse = false
			}
		}
	}
	// Eta transposes, newest first: cᵀ·E_e⁻¹ touches only position r,
	// which takes the dot product of cw with the eta's off-diagonal part.
	for e := len(f.etaPos) - 1; e >= 0; e-- {
		r := f.etaPos[e]
		lo, hi := f.etaPtr[e], f.etaPtr[e+1]
		old := cw[r]
		v := old
		switch {
		case sparse && (lo == hi || len(supp) == 0 || supp[0] > f.etaIdx[hi-1] || supp[len(supp)-1] < f.etaIdx[lo]):
			// The support misses the eta's index range: no nonzero terms.
		case sparse && hi-lo > etaSearchMin*len(supp):
			// Over the support: both it and the eta's indices ascend, so
			// each position is found by binary search past the previous
			// hit, and the terms come in the full scan's order less its
			// zero products.
			for _, i := range supp {
				lo = searchIdx(f.etaIdx, lo, hi, i)
				if lo == hi {
					break
				}
				if f.etaIdx[lo] == i {
					v -= cw[i] * f.etaVal[lo]
					lo++
				}
			}
		default:
			for t := lo; t < hi; t++ {
				v -= cw[f.etaIdx[t]] * f.etaVal[t]
			}
		}
		v /= f.etaDiag[e]
		cw[r] = v
		if sparse && v != 0 && old == 0 {
			// r joins the support unless a cancellation left it there. (A
			// nonzero old value means r is there already.)
			k := searchIdx(supp, 0, len(supp), r)
			if k == len(supp) || supp[k] != r {
				if len(supp) == maxSupp {
					sparse = false
					continue
				}
				supp = append(supp, 0)
				copy(supp[k+1:], supp[k:])
				supp[k] = r
			}
		}
	}
	for k := 0; k < m; k++ {
		work[k] = cw[f.colOf[k]]
	}
	// Forward solve Uᵀ·z = c̃ in scatter form over U's rows: once z_k is
	// final it is subtracted into the later entries of row k. Entry j
	// receives its terms in ascending k, the order of the gather down U's
	// column j, and a zero z_k contributes only exact zeros.
	for k := 0; k < m; k++ {
		v := work[k]
		if v == 0 {
			continue
		}
		v /= f.uDiag[k]
		work[k] = v
		for t := s.uRowPtr[k]; t < s.uRowPtr[k+1]; t++ {
			work[s.uRowIdx[t]] -= s.uRowVal[t] * v
		}
	}
	// Backward solve Lᵀ·ỹ = z, gathering down each non-empty column k; a
	// scatter form would reorder the sums.
	if len(f.lIdx) > 0 {
		for k := m - 1; k >= 0; k-- {
			if lo, hi := f.lPtr[k], f.lPtr[k+1]; lo < hi {
				v := work[k]
				for t := lo; t < hi; t++ {
					v -= f.lVal[t] * work[f.lIdx[t]]
				}
				work[k] = v
			}
		}
	}
	for k := 0; k < m; k++ {
		out[f.rowOf[k]] = work[k]
	}
}

// searchIdx returns the first t in [lo, hi) with idx[t] >= x, or hi: the
// binary search of an ascending index run.
func searchIdx(idx []int, lo, hi, x int) int {
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if idx[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// btranScratch is the solver-owned state btran needs beyond work and cw:
// U stored row-wise in elimination coordinates (the scatter form of Uᵀ)
// for the factor the solver currently holds, and the support buffer of
// the eta stage. It stays out of luFactor because a frozen factor is
// shared by every warm-started child, each of which keeps its own.
type btranScratch struct {
	uRowPtr []int // m+1 offsets of U's rows
	uRowIdx []int // elimination column of each entry, above its row
	uRowVal []float64
	supp    []int // m-capacity support list
	// adopted is the U of the frozen factor the rows were last built
	// from by adopt, nil after a load. Holding it keeps that array
	// allocated, so no other factor can reuse its address.
	adopted []float64
}

// adopt is load for a frozen factor f, skipped when s already holds that
// factor's U: the strong-branching probes of one node all inherit the
// node's snapshot. A frozen factor never shares storage with a factor
// that is rebuilt in place (refactorize loads those unconditionally), and
// its U never changes. m >= f.m is the dimension of the solver's factor:
// f extended by identity steps (luFactor.extend), whose rows of U are
// empty.
func (s *btranScratch) adopt(f *luFactor, m int) {
	if n := len(f.uVal); n == 0 || len(s.adopted) != n || &s.adopted[0] != &f.uVal[0] {
		s.load(f)
		s.adopted = f.uVal
	}
	// s holds the rows of a factor with this U, which may have been
	// extended to another dimension; every row past the U's own is empty,
	// ending where U ends.
	if len(s.uRowPtr) > m+1 {
		s.uRowPtr = s.uRowPtr[:m+1]
	}
	for len(s.uRowPtr) <= m {
		s.uRowPtr = append(s.uRowPtr, len(f.uIdx))
	}
	if cap(s.supp) < m {
		s.supp = make([]int, m)
	}
}

// load transposes f's U into row-wise form, O(m + nnz(U)): a counting
// transpose that scatters the columns in step order, so every row's
// entries ascend. It runs whenever the solver's factor changes.
func (s *btranScratch) load(f *luFactor) {
	m := f.m
	if cap(s.supp) < m {
		s.supp = make([]int, m)
	}
	ptr := grown(s.uRowPtr, m+1)
	for _, i := range f.uIdx {
		ptr[i+1]++
	}
	for k := 0; k < m; k++ {
		ptr[k+1] += ptr[k]
	}
	// Every entry below is overwritten, so the arrays are resized without
	// the zeroing grown does.
	s.uRowIdx = slices.Grow(s.uRowIdx[:0], len(f.uIdx))[:len(f.uIdx)]
	s.uRowVal = slices.Grow(s.uRowVal[:0], len(f.uIdx))[:len(f.uIdx)]
	// ptr[i] serves as row i's fill cursor, ending at the start of row
	// i+1; shifting it back by one row restores the offsets.
	for k := 0; k < m; k++ {
		for t := f.uPtr[k]; t < f.uPtr[k+1]; t++ {
			i := f.uIdx[t]
			s.uRowIdx[ptr[i]] = k
			s.uRowVal[ptr[i]] = f.uVal[t]
			ptr[i]++
		}
	}
	copy(ptr[1:], ptr[:m])
	ptr[0] = 0
	s.uRowPtr = ptr
	s.adopted = nil
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
	// A larger basis keeps the arenas of the columns, rows and buckets it
	// shares with the last one.
	s.cols = kept(s.cols, m)
	s.rowCols = kept(s.rowCols, m)
	for i := range s.rowCols {
		s.rowCols[i] = s.rowCols[i][:0]
	}
	s.buckets = kept(s.buckets, m+1)
	for c := range s.buckets {
		s.buckets[c] = s.buckets[c][:0]
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
	f.scales = taken(f.scales, src.scales)
	f.etaPos = taken(f.etaPos, src.etaPos)
	f.etaDiag = taken(f.etaDiag, src.etaDiag)
	f.etaPtr = taken(f.etaPtr, src.etaPtr)
	f.etaIdx = taken(f.etaIdx, src.etaIdx)
	f.etaVal = taken(f.etaVal, src.etaVal)
}
