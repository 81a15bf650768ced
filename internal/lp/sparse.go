package lp

// Sparse constraint-matrix representation. The DSCT-EA formulations are
// structurally sparse — a variable t_jr appears only in machine r's
// deadline-staircase rows and a handful of per-task rows, so nonzero
// density falls roughly as 1/m — so every pass of the simplex core walks
// nonzeros only. This file provides the two ingredients:
//
//   - rowBuilder turns a Problem's rows into the core's canonical form,
//     the single construction path for its matrix: each row's repeated
//     Terms accumulate (as AddConstraint documents), its columns are
//     sorted, exact cancellations are dropped, >= rows are negated to <=
//     and every row is equilibrated by its largest coefficient. It keeps
//     what it built, so a re-solve rebuilds only the rows that changed;
//   - csMatrix holds the oriented, equilibrated structural block in both
//     CSR (row-major: pricing and pivot-row passes walk row nonzeros) and
//     CSC (column-major: FTRAN and basis gathers walk column nonzeros).
//
// Logical columns (one per row, always coefficient +1 after orientation)
// and artificial columns (±e_i) are implicit everywhere and reconstructed
// on demand, so only structural nonzeros are stored.

import (
	"math"
	"sort"
)

// csrRows is a compressed-row store: row i's nonzeros are (idx[k], val[k])
// for k in [ptr[i], ptr[i+1]), idx ascending within each row.
type csrRows struct {
	ptr []int // m+1 offsets into idx/val
	idx []int
	val []float64
}

// rowKey identifies a built row: the term slice it was built from (the
// same backing array and the same length) and its sense. Nothing edits a
// row's terms in place — AddConstraint and AppendTerms copy into a new
// slice, Overlay and materializeRows share it — so an equal key means
// equal terms. The key holds the slice, which keeps its array allocated:
// no other row can be given its address while the key is held.
type rowKey struct {
	terms []Term
	sense Sense
}

// matches reports whether r has the terms and sense k was built from.
func (k *rowKey) matches(r row) bool {
	return k.sense == r.sense && len(k.terms) == len(r.terms) &&
		(len(r.terms) == 0 || &k.terms[0] == &r.terms[0])
}

// rowBuilder holds the canonical form of the last problem's rows, with
// one key and one equilibration scale per row, and rebuilds only the rows
// whose key no longer matches. A fresh builder (a package-level solve's)
// holds no rows, so it builds every row, into arrays sized up front from
// the problem's term count.
type rowBuilder struct {
	keys  []rowKey
	rows  csrRows   // the built rows
	spare csrRows   // the previous build's arrays, swapped in by a rebuild
	scale []float64 // largest |coefficient| of each built row (1: no nonzeros)

	// Scatter scratch of the per-row deduplication.
	acc     []float64
	inRow   []bool
	touched []int
}

// build brings the stored rows up to p's and reports whether any row was
// rebuilt or dropped. A row whose key matches keeps its segment and its
// scale; a new or changed row is built alone. When every row matches,
// nothing is copied.
func (rb *rowBuilder) build(p *Problem) bool {
	m, have := p.NumConstraints(), len(rb.keys)
	first := 0 // the first row to rebuild
	for first < m && first < have && rb.keys[first].matches(p.rowAt(first)) {
		first++
	}
	if first == m && m == have {
		return false
	}
	src := rb.rows
	base := 0 // stored nonzeros of the rows before first
	if first > 0 {
		base = src.ptr[first]
	}
	need, reuse := base, false
	for i := first; i < m; i++ {
		r := p.rowAt(i)
		if i < have && rb.keys[i].matches(r) {
			need += src.ptr[i+1] - src.ptr[i]
			reuse = true
		} else {
			need += len(r.terms)
		}
	}
	dst := &rb.rows
	if reuse {
		// A matched row follows a rebuilt one, so its segment moves: the
		// rows are written into the spare arrays, copying the prefix and
		// each matched segment from the previous build.
		rb.rows, rb.spare = rb.spare, rb.rows
		dst.ptr = kept(dst.ptr, m+1)
		copy(dst.ptr, src.ptr[:first+1])
		dst.idx = append(kept(dst.idx, need)[:0], src.idx[:base]...)
		dst.val = append(kept(dst.val, need)[:0], src.val[:base]...)
	} else {
		// Every row from first on is rebuilt: append after the prefix.
		dst.ptr = kept(dst.ptr, m+1)
		dst.idx = kept(dst.idx, need)[:base]
		dst.val = kept(dst.val, need)[:base]
	}
	if m < have {
		clear(rb.keys[m:have]) // release the dropped rows' term slices
	}
	rb.keys = kept(rb.keys, m)
	rb.scale = kept(rb.scale, m)
	rb.acc = grown(rb.acc, p.nVars)
	rb.inRow = grown(rb.inRow, p.nVars)
	for i := first; i < m; i++ {
		r := p.rowAt(i)
		if reuse && i < have && rb.keys[i].matches(r) {
			lo, hi := src.ptr[i], src.ptr[i+1]
			dst.idx = append(dst.idx, src.idx[lo:hi]...)
			dst.val = append(dst.val, src.val[lo:hi]...)
		} else {
			rb.keys[i] = rowKey{terms: r.terms, sense: r.sense}
			rb.scale[i] = rb.appendRow(dst, r)
		}
		dst.ptr[i+1] = len(dst.idx)
	}
	return true
}

// appendRow appends r's canonical form to dst — its Terms accumulated in
// input order, columns ascending, exact cancellations dropped, negated
// when r is a >= row, then divided through by its largest |coefficient| —
// and returns that scale, or 1 for a row with no nonzeros.
func (rb *rowBuilder) appendRow(dst *csrRows, r row) float64 {
	start := len(dst.idx)
	acc, inRow, touched := rb.acc, rb.inRow, rb.touched[:0]
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
			dst.idx = append(dst.idx, v)
			dst.val = append(dst.val, c)
		}
		acc[v] = 0
		inRow[v] = false
	}
	rb.touched = touched[:0] // keep any growth for the next row
	seg := dst.val[start:]
	if r.sense == GE {
		for k := range seg {
			seg[k] = -seg[k]
		}
	}
	scale := 0.0
	for _, v := range seg {
		if a := math.Abs(v); a > scale {
			scale = a
		}
	}
	if scale > 0 {
		inv := 1 / scale
		for k := range seg {
			seg[k] *= inv
		}
		return scale
	}
	return 1
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

// build fills sp from already-oriented, already-scaled rows, reusing sp's
// CSC storage (the CSR side aliases the caller's slices): the CSC side is
// a counting transpose of the CSR side, O(nnz + n + m). next is an
// n-length scratch slice owned by the caller; its contents are destroyed.
func (sp *csMatrix) build(m, n int, rows csrRows, next []int) {
	sp.m, sp.n = m, n
	sp.rowPtr, sp.colIdx, sp.rowVal = rows.ptr, rows.idx, rows.val
	sp.colPtr = grown(sp.colPtr, n+1)
	sp.rowIdx = grown(sp.rowIdx, len(rows.idx))
	sp.colVal = grown(sp.colVal, len(rows.idx))
	for _, j := range rows.idx {
		sp.colPtr[j+1]++
	}
	for j := 0; j < n; j++ {
		sp.colPtr[j+1] += sp.colPtr[j]
	}
	copy(next, sp.colPtr[:n])
	for i := 0; i < m; i++ {
		for k := rows.ptr[i]; k < rows.ptr[i+1]; k++ {
			j := rows.idx[k]
			sp.rowIdx[next[j]] = i
			sp.colVal[next[j]] = rows.val[k]
			next[j]++
		}
	}
}
