package lp

// Sparse LU factorisation of the simplex basis, with an eta file for
// product-form updates: the simplex core's basis representation. Instead
// of an explicit dense m×m B⁻¹ — O(m³) Gauss–Jordan refactorisation, O(m²)
// per pivot, m² floats per warm-start snapshot — it keeps B = Pᵀ·L·U·Qᵀ as
// two sparse triangular factors plus a short product-form eta file, so
//
//   - FTRAN (w = B⁻¹a) and BTRAN (yᵀ = cᵦᵀB⁻¹) take their input's support
//     and return their result's, and walk the supports through the
//     permutations, the triangular stages and the eta file, so a
//     hyper-sparse solve (Hall and McKinnon, 2005) costs the factor
//     entries its nonzeros reach plus one pass over the eta file, not
//     O(m) or nnz(L+U) + nnz(etas);
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
// columns and scatters along U's rows, from a row-wise copy of U and L's
// row pattern that the solver keeps beside the factor (solveScratch),
// since frozen factors are shared between solvers.
//
// Support walks. A vector's support is the ascending list of positions
// where it is not +0; a caller keeps each vector +0 outside its support
// and clears it over the support the last result returned. The L and U
// stages take the elimination steps their vector reaches from a bitset
// queue, lowest set bit first for the forward stages and highest first
// for the backward ones: the order a binary heap would give, at one word
// read per 64 steps. So a step is processed only after every step that
// feeds it, as in the dense loops. Once a walk has touched more than
// m/denseSwitchDiv positions, the stage in progress continues as the
// dense loop from its current step, and the rest of the solve is dense.
//
// Every kernel computes each element bit for bit as the dense loops do
// (ftranDense and btranDense in factor_test.go are those loops, kept as
// the reference), signed zeros included: a skipped term is always a
// product with an exact zero that the dense loop skips too or that
// cannot change the element, and the terms that remain are summed in the
// same order.

import (
	"math"
	"math/bits"
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
	// denseSwitchDiv sets the density switch of the support walks: once
	// more than m/denseSwitchDiv positions of a vector have been touched,
	// FTRAN and BTRAN finish the stage in progress and the rest of the
	// solve with the dense loops, and pricing takes its dense pass (Hall
	// and McKinnon's 10% again).
	denseSwitchDiv = 10
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

// ftran solves B·x = rhs. rhs is in row space, and supp lists ascending
// every row where it is not +0 (it may list zeros too); only those entries
// are read. The result goes to out, in basis-position space, which must be
// +0 on entry; the ascending positions where the result is not +0 are
// written to outSupp's backing array (capacity m) and returned. s is the
// caller's solveScratch for f, whose work vector is +0 between calls: the
// factor itself is stateless, so frozen snapshots serve many solvers.
//
// While the touched positions stay within m/denseSwitchDiv, the L and U
// stages run over them in step order (ascending for L, descending for U)
// from a bitset queue, and the eta file over the pivots it finds nonzero;
// past that count the stage in progress and the rest of the solve run the
// dense loops, which visit every step. Either way each entry receives its
// nonzero terms in step order, as the dense loops give them.
//
//lint:hotpath one triangular solve per pivot per node; pinned to zero allocations
func (f *luFactor) ftran(rhs []float64, supp []int, out []float64, outSupp []int, s *solveScratch) []int {
	m := f.m
	work := s.work[:m]
	limit := m / denseSwitchDiv
	if len(supp) > limit {
		f.ftranFull(rhs, out, s)
		return appendSupport(outSupp[:0], out)
	}
	touched := s.touched[:0]
	for _, i := range supp {
		if v := rhs[i]; math.Float64bits(v) != 0 {
			k := f.posOfRow[i]
			work[k] = v
			touched = append(touched, k)
		}
	}
	q := s.queue[:(m+63)>>6]
	// Forward solve L·z = P·rhs: step k scatters down L's column k once
	// every earlier step has, so the queue holds the steps with a nonzero
	// value and a nonempty column.
	if len(f.lIdx) > 0 {
		for _, k := range touched {
			if work[k] != 0 && f.lPtr[k] < f.lPtr[k+1] {
				q[k>>6] |= 1 << (k & 63)
			}
		}
		for w := range q {
			for q[w] != 0 {
				k := w<<6 | bits.TrailingZeros64(q[w])
				q[w] &^= 1 << (k & 63)
				v := work[k]
				if v == 0 {
					continue
				}
				for t := f.lPtr[k]; t < f.lPtr[k+1]; t++ {
					i := f.lIdx[t]
					if math.Float64bits(work[i]) == 0 {
						touched = append(touched, i)
					}
					work[i] -= f.lVal[t] * v
					if f.lPtr[i] < f.lPtr[i+1] {
						q[i>>6] |= 1 << (i & 63)
					}
				}
				if len(touched) > limit {
					clear(q[w:])
					s.touched = touched
					f.lDense(work, k+1)
					f.uDense(work, m-1)
					f.ftranDenseTail(work, out)
					return appendSupport(outSupp[:0], out)
				}
			}
		}
	}
	// Backward solve U·x̃ = z: step k divides by the diagonal and scatters up
	// U's column k once every later step has.
	for _, k := range touched {
		if work[k] != 0 {
			q[k>>6] |= 1 << (k & 63)
		}
	}
	for w := len(q) - 1; w >= 0; w-- {
		for q[w] != 0 {
			k := w<<6 | (63 - bits.LeadingZeros64(q[w]))
			q[w] &^= 1 << (k & 63)
			v := work[k]
			if v == 0 {
				continue
			}
			v /= f.uDiag[k]
			work[k] = v
			for t := f.uPtr[k]; t < f.uPtr[k+1]; t++ {
				i := f.uIdx[t]
				if math.Float64bits(work[i]) == 0 {
					touched = append(touched, i)
				}
				work[i] -= f.uVal[t] * v
				q[i>>6] |= 1 << (i & 63)
			}
			if len(touched) > limit {
				clear(q[:w+1])
				s.touched = touched
				f.uDense(work, k-1)
				f.ftranDenseTail(work, out)
				return appendSupport(outSupp[:0], out)
			}
		}
	}
	s.touched = touched
	ob := s.outBits
	for _, k := range touched {
		if v := work[k]; math.Float64bits(v) != 0 {
			j := f.colOf[k]
			out[j] = v
			ob[j>>6] |= 1 << (j & 63)
			work[k] = 0
		}
	}
	// Eta file, oldest first: B = B₀·E₁⋯E_e, so B⁻¹ applies E⁻¹ in
	// chronological order after the factor solve. An eta whose pivot entry
	// is zero is the identity on this vector.
	for e, r := range f.etaPos {
		pv := out[r]
		if pv == 0 {
			continue
		}
		pv /= f.etaDiag[e]
		for t := f.etaPtr[e]; t < f.etaPtr[e+1]; t++ {
			i := f.etaIdx[t]
			out[i] -= f.etaVal[t] * pv
			ob[i>>6] |= 1 << (i & 63)
		}
		out[r] = pv
	}
	return s.emit(out, outSupp)
}

// ftranFull is FTRAN of a right-hand side taken as dense: the dense loops
// over every position, as ftran runs them past its switch, for a caller
// that needs no support list. out is overwritten whole.
func (f *luFactor) ftranFull(rhs, out []float64, s *solveScratch) {
	work := s.work[:f.m]
	for k := range work {
		work[k] = rhs[f.rowOf[k]]
	}
	f.lDense(work, 0)
	f.uDense(work, f.m-1)
	f.ftranDenseTail(work, out)
}

// ftranDenseTail finishes a dense FTRAN from the factor solve's result in
// work: it permutes work into out (every position), leaves work +0 and
// applies the eta file.
func (f *luFactor) ftranDenseTail(work, out []float64) {
	for k := 0; k < f.m; k++ {
		out[f.colOf[k]] = work[k]
	}
	clear(work)
	for e, r := range f.etaPos {
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

// lDense is FTRAN's L stage over every step from on: step k scatters its
// nonzero value down L's column k.
func (f *luFactor) lDense(work []float64, from int) {
	if len(f.lIdx) == 0 {
		return
	}
	for k := from; k < f.m; k++ {
		v := work[k]
		if v == 0 {
			continue
		}
		for t := f.lPtr[k]; t < f.lPtr[k+1]; t++ {
			work[f.lIdx[t]] -= f.lVal[t] * v
		}
	}
}

// uDense is FTRAN's U stage over every step from down to 0: step k divides
// its nonzero value by the diagonal and scatters it up U's column k.
func (f *luFactor) uDense(work []float64, from int) {
	for k := from; k >= 0; k-- {
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
}

// btran solves yᵀ·B = cᵀ. c is in basis-position space, and supp lists
// ascending every position where it is not +0 (it may list zeros too);
// only those entries are read. The result goes to out, in row space, which
// must be +0 on entry; the ascending rows where the result is not +0 are
// written to outSupp's backing array (capacity m) and returned. s is the
// caller's solveScratch loaded for f.
//
// The eta stage applies the file over c's support while that holds at
// most m/btranHyperDiv positions, as it always has. The Uᵀ stage then
// scatters along U's rows in ascending step order from a bitset queue, and
// the Lᵀ stage gathers down L's columns in descending step order, visiting
// only the steps a nonzero or a negative zero reaches; past m/denseSwitchDiv
// touched positions the stage in progress and the rest run the dense
// loops. Every element comes out bit for bit as the dense loops compute
// it, signed zeros included: the eta stage is unchanged, the Uᵀ scatter
// skips exact zeros as the dense loop does, and a step the Lᵀ stage skips
// holds +0 with nothing but zero products to subtract, which leave +0 as
// it is.
//
//lint:hotpath one transposed solve per pricing pass; pinned to zero allocations
func (f *luFactor) btran(c []float64, supp []int, out []float64, outSupp []int, s *solveScratch) []int {
	m := f.m
	cw, work := s.cw[:m], s.work[:m]
	// The eta stage's support: ascending positions that may hold a nonzero
	// of cw, tracked while it stays within the hyper-sparse threshold.
	// zeros collects the positions outside it that hold −0.
	maxSupp := m / btranHyperDiv
	esupp := s.supp[:0]
	zeros := s.zeros[:0]
	sparse := true
	for _, i := range supp {
		ci := c[i]
		cw[i] = ci
		if ci != 0 {
			if sparse {
				if len(esupp) < maxSupp {
					esupp = append(esupp, i)
				} else {
					sparse = false
				}
			}
		} else if math.Float64bits(ci) != 0 {
			zeros = append(zeros, i)
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
		case sparse && (lo == hi || len(esupp) == 0 || esupp[0] > f.etaIdx[hi-1] || esupp[len(esupp)-1] < f.etaIdx[lo]):
			// The support misses the eta's index range: no nonzero terms.
		case sparse && hi-lo > etaSearchMin*len(esupp):
			// Over the support: both it and the eta's indices ascend, so
			// each position is found by binary search past the previous
			// hit, and the terms come in the full scan's order less its
			// zero products.
			for _, i := range esupp {
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
		if !sparse {
			continue
		}
		if v != 0 {
			if old == 0 {
				// r joins the support unless a cancellation left it there. (A
				// nonzero old value means r is there already.)
				k := searchIdx(esupp, 0, len(esupp), r)
				if k == len(esupp) || esupp[k] != r {
					if len(esupp) == maxSupp {
						sparse = false
						continue
					}
					esupp = append(esupp, 0)
					copy(esupp[k+1:], esupp[k:])
					esupp[k] = r
				}
			}
		} else if math.Float64bits(v) != 0 && math.Float64bits(old) == 0 {
			// A zero divided by a negative diagonal.
			zeros = append(zeros, r)
		}
	}
	s.supp, s.zeros = esupp, zeros
	if !sparse {
		for k := 0; k < m; k++ {
			work[k] = cw[f.colOf[k]]
		}
		clear(cw)
		f.utDense(work, s, 0)
		f.ltDense(work, m-1)
		return f.btranDenseTail(work, out, outSupp)
	}
	// Move cw's support and its negative zeros to elimination steps,
	// leaving cw +0. Only the nonzeros enter the Uᵀ queue.
	limit := m / denseSwitchDiv
	q := s.queue[:(m+63)>>6]
	touched := s.touched[:0]
	for _, i := range esupp {
		k := f.posOfCol[i]
		v := cw[i]
		cw[i] = 0
		work[k] = v
		touched = append(touched, k)
		if v != 0 {
			q[k>>6] |= 1 << (k & 63)
		}
	}
	nz := len(touched)
	for _, i := range zeros {
		if v := cw[i]; math.Float64bits(v) != 0 {
			k := f.posOfCol[i]
			cw[i] = 0
			work[k] = v
			touched = append(touched, k)
		}
	}
	// Forward solve Uᵀ·z = c̃ in scatter form over U's rows: once z_k is
	// final it is subtracted into the later entries of row k. Entry j
	// receives its terms in ascending k, the order of the gather down U's
	// column j, and a zero z_k contributes only exact zeros.
	for w := range q {
		for q[w] != 0 {
			k := w<<6 | bits.TrailingZeros64(q[w])
			q[w] &^= 1 << (k & 63)
			v := work[k]
			if v == 0 {
				continue
			}
			v /= f.uDiag[k]
			work[k] = v
			for t := s.uRowPtr[k]; t < s.uRowPtr[k+1]; t++ {
				j := s.uRowIdx[t]
				if math.Float64bits(work[j]) == 0 {
					touched = append(touched, j)
					nz++
				}
				work[j] -= s.uRowVal[t] * v
				q[j>>6] |= 1 << (j & 63)
			}
			if nz > limit {
				clear(q[w:])
				s.touched = touched
				f.utDense(work, s, k+1)
				f.ltDense(work, m-1)
				return f.btranDenseTail(work, out, outSupp)
			}
		}
	}
	// Backward solve Lᵀ·ỹ = z, gathering down L's column k in descending
	// k; a scatter form would reorder the sums. A step needs its gather
	// when it holds a value that is not +0 (a −0 may turn +0 there) or a
	// later step it depends on turns nonzero, which L's row pattern finds.
	if len(f.lIdx) > 0 {
		for _, k := range touched {
			if f.lPtr[k] < f.lPtr[k+1] {
				q[k>>6] |= 1 << (k & 63)
			} else if work[k] != 0 {
				s.queueLRow(q, k)
			}
		}
		for w := len(q) - 1; w >= 0; w-- {
			for q[w] != 0 {
				k := w<<6 | (63 - bits.LeadingZeros64(q[w]))
				q[w] &^= 1 << (k & 63)
				old := work[k]
				v := old
				for t := f.lPtr[k]; t < f.lPtr[k+1]; t++ {
					v -= f.lVal[t] * work[f.lIdx[t]]
				}
				work[k] = v
				if math.Float64bits(old) == 0 && math.Float64bits(v) != 0 {
					touched = append(touched, k)
					nz++
				}
				if v != 0 {
					s.queueLRow(q, k)
				}
				if nz > limit {
					clear(q[:w+1])
					s.touched = touched
					f.ltDense(work, k-1)
					return f.btranDenseTail(work, out, outSupp)
				}
			}
		}
	}
	s.touched = touched
	ob := s.outBits
	for _, k := range touched {
		if v := work[k]; math.Float64bits(v) != 0 {
			i := f.rowOf[k]
			out[i] = v
			ob[i>>6] |= 1 << (i & 63)
			work[k] = 0
		}
	}
	return s.emit(out, outSupp)
}

// btranDenseTail finishes a dense BTRAN from the triangular solves' result
// in work: it permutes work into out (every position), leaves work +0 and
// lists out's support.
func (f *luFactor) btranDenseTail(work, out []float64, outSupp []int) []int {
	for k := 0; k < f.m; k++ {
		out[f.rowOf[k]] = work[k]
	}
	clear(work)
	return appendSupport(outSupp[:0], out)
}

// utDense is BTRAN's Uᵀ stage over every step from on, in the scatter form
// along s's rows of U.
func (f *luFactor) utDense(work []float64, s *solveScratch, from int) {
	for k := from; k < f.m; k++ {
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
}

// ltDense is BTRAN's Lᵀ stage over every step from down to 0: each
// nonempty column k gathers its terms, zero products included.
func (f *luFactor) ltDense(work []float64, from int) {
	if len(f.lIdx) == 0 {
		return
	}
	for k := from; k >= 0; k-- {
		if lo, hi := f.lPtr[k], f.lPtr[k+1]; lo < hi {
			v := work[k]
			for t := lo; t < hi; t++ {
				v -= f.lVal[t] * work[f.lIdx[t]]
			}
			work[k] = v
		}
	}
}

// appendSupport appends to dst the ascending positions where x is not +0.
func appendSupport(dst []int, x []float64) []int {
	for i, v := range x {
		if math.Float64bits(v) != 0 {
			dst = append(dst, i)
		}
	}
	return dst
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

// solveScratch is the solver-owned state FTRAN and BTRAN need beside the
// factor: U stored row-wise and L's row pattern, in elimination
// coordinates, for the factor the solver currently holds (the scatter form
// of Uᵀ and the steps a nonzero of ỹ reaches in Lᵀ); two work vectors that
// are +0 between calls; and the position lists and bitset queues of the
// support walks. It stays out of luFactor because a frozen factor is
// shared by every warm-started child, each of which keeps its own.
type solveScratch struct {
	uRowPtr []int // m+1 offsets of U's rows
	uRowIdx []int // elimination column of each entry, above its row
	uRowVal []float64
	lRowPtr []int // m+1 offsets of L's rows
	lRowIdx []int // elimination column of each entry, left of its row

	work, cw []float64 // triangular-solve and eta-stage vectors, +0 between calls
	supp     []int     // BTRAN's eta-stage support, m capacity
	zeros    []int     // BTRAN's −0 positions outside supp
	touched  []int     // elimination steps a support walk has written
	queue    []uint64  // bitset of the steps waiting in a stage
	outBits  []uint64  // bitset of the output positions written, for emit

	// adopted is the U of the frozen factor the rows were last built
	// from by adopt, nil after a load. Holding it keeps that array
	// allocated, so no other factor can reuse its address.
	adopted []float64
}

// ensure sizes s's vectors, lists and bitsets for an m-row factor. Grown
// vectors are zero, and kept ones are +0 already, since every kernel
// leaves them so.
func (s *solveScratch) ensure(m int) {
	if len(s.work) < m {
		s.work = grown(s.work, m)
		s.cw = grown(s.cw, m)
	}
	if cap(s.supp) < m {
		s.supp = make([]int, 0, regrowCap(cap(s.supp), m))
		s.zeros = make([]int, 0, regrowCap(cap(s.zeros), m))
		s.touched = make([]int, 0, regrowCap(cap(s.touched), m))
	}
	if words := (m + 63) >> 6; len(s.queue) < words {
		s.queue = grown(s.queue, words)
		s.outBits = grown(s.outBits, words)
	}
}

// emit returns, written to dst's backing array, the ascending positions
// flagged in s.outBits where x is not +0, and clears the flags.
func (s *solveScratch) emit(x []float64, dst []int) []int {
	dst = dst[:0]
	for w, b := range s.outBits[:(len(x)+63)>>6] {
		if b == 0 {
			continue
		}
		for ; b != 0; b &= b - 1 {
			if i := w<<6 | bits.TrailingZeros64(b); math.Float64bits(x[i]) != 0 {
				dst = append(dst, i)
			}
		}
		s.outBits[w] = 0
	}
	return dst
}

// queueLRow queues the steps whose L column has an entry in row k: the
// gathers that read ỹ_k.
func (s *solveScratch) queueLRow(q []uint64, k int) {
	for t := s.lRowPtr[k]; t < s.lRowPtr[k+1]; t++ {
		j := s.lRowIdx[t]
		q[j>>6] |= 1 << (j & 63)
	}
}

// adopt is load for a frozen factor f, skipped when s already holds that
// factor's U: the strong-branching probes of one node all inherit the
// node's snapshot. A frozen factor never shares storage with a factor
// that is rebuilt in place (refactorize loads those unconditionally), and
// its L and U never change. m >= f.m is the dimension of the solver's
// factor: f extended by identity steps (luFactor.extend), whose rows of L
// and U are empty.
func (s *solveScratch) adopt(f *luFactor, m int) {
	if n := len(f.uVal); n == 0 || len(s.adopted) != n || &s.adopted[0] != &f.uVal[0] {
		s.load(f)
		s.adopted = f.uVal
	}
	// s holds the rows of a factor with this L and U, which may have been
	// extended to another dimension; every row past the factor's own is
	// empty, ending where L and U end.
	if len(s.uRowPtr) > m+1 {
		s.uRowPtr = s.uRowPtr[:m+1]
		s.lRowPtr = s.lRowPtr[:m+1]
	}
	for len(s.uRowPtr) <= m {
		s.uRowPtr = append(s.uRowPtr, len(f.uIdx))
		s.lRowPtr = append(s.lRowPtr, len(f.lIdx))
	}
	s.ensure(m)
}

// load transposes f's U into row-wise form and records L's row pattern,
// O(m + nnz(L) + nnz(U)): counting transposes that scatter the columns in
// step order, so every row's entries ascend. It runs whenever the solver's
// factor changes.
func (s *solveScratch) load(f *luFactor) {
	m := f.m
	s.ensure(m)
	s.uRowPtr = rowPattern(s.uRowPtr, m, f.uIdx)
	s.uRowIdx = slices.Grow(s.uRowIdx[:0], len(f.uIdx))[:len(f.uIdx)]
	s.uRowVal = slices.Grow(s.uRowVal[:0], len(f.uIdx))[:len(f.uIdx)]
	s.lRowPtr = rowPattern(s.lRowPtr, m, f.lIdx)
	s.lRowIdx = slices.Grow(s.lRowIdx[:0], len(f.lIdx))[:len(f.lIdx)]
	// ptr[i] serves as row i's fill cursor, ending at the start of row
	// i+1; shifting it back by one row restores the offsets.
	uptr, lptr := s.uRowPtr, s.lRowPtr
	for k := 0; k < m; k++ {
		for t := f.uPtr[k]; t < f.uPtr[k+1]; t++ {
			i := f.uIdx[t]
			s.uRowIdx[uptr[i]] = k
			s.uRowVal[uptr[i]] = f.uVal[t]
			uptr[i]++
		}
		for t := f.lPtr[k]; t < f.lPtr[k+1]; t++ {
			i := f.lIdx[t]
			s.lRowIdx[lptr[i]] = k
			lptr[i]++
		}
	}
	copy(uptr[1:], uptr[:m])
	uptr[0] = 0
	copy(lptr[1:], lptr[:m])
	lptr[0] = 0
	s.adopted = nil
}

// rowPattern returns ptr resized to m+1 holding where each row of the
// column-wise pattern with row indices idx starts: ptr[i] counts the
// entries in rows before i, and ptr[m] all of them.
func rowPattern(ptr []int, m int, idx []int) []int {
	ptr = grown(ptr, m+1)
	for _, i := range idx {
		ptr[i+1]++
	}
	for k := 0; k < m; k++ {
		ptr[k+1] += ptr[k]
	}
	return ptr
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
