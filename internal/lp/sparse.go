package lp

// Sparse constraint-matrix representation. The DSCT-EA formulations are
// structurally sparse — a variable t_jr appears only in machine r's
// deadline-staircase rows and a handful of per-task rows, so nonzero
// density falls roughly as 1/m — so every pass of the simplex core walks
// nonzeros only. This file provides the two ingredients:
//
//   - dedupScratch.flatten turns a Problem into sorted, deduplicated
//     index/value rows (repeated Terms accumulate, as AddConstraint
//     documents), the single construction path for the simplex core's
//     matrix;
//   - csMatrix holds the oriented, equilibrated structural block in both
//     CSR (row-major: pricing and pivot-row passes walk row nonzeros) and
//     CSC (column-major: FTRAN and basis gathers walk column nonzeros).
//
// Logical columns (one per row, always coefficient +1 after orientation)
// and artificial columns (±e_i) are implicit everywhere and reconstructed
// on demand, so only structural nonzeros are stored.

import "sort"

// sparseRows is a Problem's constraint list in compressed row form, before
// any orientation or scaling: row i's structural nonzeros are
// (idx[k], val[k]) for k in [ptr[i], ptr[i+1]), with idx ascending within
// each row and repeated Terms accumulated. Terms that cancel to exactly
// zero are dropped.
type sparseRows struct {
	ptr   []int // m+1 offsets into idx/val
	idx   []int
	val   []float64
	sense []Sense
	rhs   []float64
}

// row returns the index and value slices of row i (read-only views).
func (sr *sparseRows) row(i int) ([]int, []float64) {
	return sr.idx[sr.ptr[i]:sr.ptr[i+1]], sr.val[sr.ptr[i]:sr.ptr[i+1]]
}

// dedupScratch is the scatter buffer of the row flattener, reusable across
// solves (a Workspace keeps one per core).
type dedupScratch struct {
	acc     []float64
	inRow   []bool
	touched []int
}

// flatten flattens p into sr, reusing sr's storage and the scratch.
// O(total terms + nnz log nnz-per-row) using a scatter buffer, so overlay
// problems (shared base rows plus a few appended bound rows) flatten
// without touching the base's Term storage.
func (ds *dedupScratch) flatten(p *Problem, sr *sparseRows) *sparseRows {
	m, n := p.NumConstraints(), p.nVars
	sr.ptr = grown(sr.ptr, m+1)
	sr.sense = grown(sr.sense, m)
	sr.rhs = grown(sr.rhs, m)
	total := 0
	for i := 0; i < m; i++ {
		total += len(p.rowAt(i).terms)
	}
	if cap(sr.idx) < total {
		sr.idx = make([]int, 0, total)
	} else {
		sr.idx = sr.idx[:0]
	}
	if cap(sr.val) < total {
		sr.val = make([]float64, 0, total)
	} else {
		sr.val = sr.val[:0]
	}

	ds.acc = grown(ds.acc, n)
	ds.inRow = grown(ds.inRow, n)
	acc, inRow := ds.acc, ds.inRow
	touched := ds.touched[:0]
	for i := 0; i < m; i++ {
		r := p.rowAt(i)
		for _, tm := range r.terms {
			if !inRow[tm.Var] {
				inRow[tm.Var] = true
				touched = append(touched, tm.Var)
			}
			acc[tm.Var] += tm.Coef
		}
		sort.Ints(touched)
		for _, v := range touched {
			if c := acc[v]; c != 0 {
				sr.idx = append(sr.idx, v)
				sr.val = append(sr.val, c)
			}
			acc[v] = 0
			inRow[v] = false
		}
		touched = touched[:0]
		sr.sense[i] = r.sense
		sr.rhs[i] = r.rhs
		sr.ptr[i+1] = len(sr.idx)
	}
	ds.touched = touched[:0] // keep any growth for the next flatten
	return sr
}

// csMatrix is the revised core's oriented (>= rows negated to <=) and
// row-equilibrated structural block, indexed both ways. The two views hold
// identical values; passes pick whichever walks only the nonzeros they
// need.
type csMatrix struct {
	m, n int
	// CSR: row i's nonzeros are (colIdx[k], rowVal[k]) for
	// k in [rowPtr[i], rowPtr[i+1]), colIdx ascending.
	rowPtr []int
	colIdx []int
	rowVal []float64
	// CSC: column j's nonzeros are (rowIdx[k], colVal[k]) for
	// k in [colPtr[j], colPtr[j+1]), rowIdx ascending.
	colPtr []int
	rowIdx []int
	colVal []float64
}

// newCSMatrix builds the index pair from already-oriented, already-scaled
// rows: cols/vals views per row as produced by the caller. The CSC side is
// a counting transpose of the CSR side, O(nnz + n + m).
func newCSMatrix(m, n int, rowPtr []int, colIdx []int, rowVal []float64) *csMatrix {
	sp := &csMatrix{}
	sp.build(m, n, rowPtr, colIdx, rowVal, make([]int, n))
	return sp
}

// build fills sp from already-oriented, already-scaled rows, reusing sp's
// CSC storage (the CSR side aliases the caller's slices). next is an
// n-length scratch slice owned by the caller; its contents are destroyed.
func (sp *csMatrix) build(m, n int, rowPtr []int, colIdx []int, rowVal []float64, next []int) {
	sp.m, sp.n = m, n
	sp.rowPtr, sp.colIdx, sp.rowVal = rowPtr, colIdx, rowVal
	sp.colPtr = grown(sp.colPtr, n+1)
	sp.rowIdx = grown(sp.rowIdx, len(colIdx))
	sp.colVal = grown(sp.colVal, len(colIdx))
	for _, j := range colIdx {
		sp.colPtr[j+1]++
	}
	for j := 0; j < n; j++ {
		sp.colPtr[j+1] += sp.colPtr[j]
	}
	copy(next, sp.colPtr[:n])
	for i := 0; i < m; i++ {
		for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
			j := colIdx[k]
			sp.rowIdx[next[j]] = i
			sp.colVal[next[j]] = rowVal[k]
			next[j]++
		}
	}
}
