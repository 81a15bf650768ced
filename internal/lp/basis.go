package lp

import "fmt"

// Column kinds of a basis entry, in the revised solver's canonical layout.
// Every row of a problem owns one logical column (the slack of a <= row,
// the negated-slack of a >= row, or the fixed-at-zero logical of an == row)
// and one phase-1 artificial column. Structural variables keep their
// problem indices.
const (
	basisStructural uint8 = iota
	basisLogical
	basisArtificial
)

// basisEntry identifies one basic column: a structural variable by index,
// or a row's logical/artificial column by row index. Row-indexed entries
// stay valid when further rows are appended to the problem, which is what
// makes a Basis transferable from a branch-and-bound parent to its
// children.
type basisEntry struct {
	kind uint8
	idx  int
}

// Basis is the basic column set of a solved linear program, one entry per
// constraint row, as produced by SolveBasis and SolveFrom — plus, for the
// bounded-variable method, the nonbasic-at-upper markers that complete the
// solution's description (a nonbasic structural column rests at its lower
// bound unless marked). It is an opaque warm-start token: pass it to
// SolveFrom on a problem whose leading rows are identical to the rows of
// the problem that produced it — typically the same problem with one
// variable's bounds tightened (row-free branch-and-bound children) and/or
// extra rows appended. A Basis is immutable once returned and safe to
// share across goroutines.
//
// Besides the column set, a Basis snapshots the basis factorisation at
// optimality: the frozen sparse L·U factors plus eta file (fac), with the
// row scales they were computed under. A child warm start adopts them by
// an O(1) struct copy — the triangular factors are immutable and shared,
// and the first eta the child appends copies the clipped eta file out of
// the shared backing (copy-on-write), so sibling children never race. A
// child with appended rows extends the adopted factor across them instead
// of refactorising: identity elimination steps for the new rows, copied
// out of the shared permutation and pointer arrays, plus one unit eta per
// old basic column the new rows reach. Branch-and-bound children share
// their parent's Basis pointer, so live memory scales with the open
// frontier, not the tree. age counts the pivots the snapshot has absorbed
// since its last from-scratch factorisation; SolveFrom refuses snapshots
// whose eta file has gone fill-heavy, or whose row scales have moved, and
// rebuilds instead, bounding inherited roundoff across generations.
type Basis struct {
	//lint:frozen a Basis is immutable once returned
	nVars int
	//lint:frozen the column set is shared by every child warm start
	entries []basisEntry
	// atUpper[v] marks nonbasic structural variable v as resting at its
	// upper bound (false: lower bound; always false for basic columns).
	// Only structural columns need the marker: logicals and artificials
	// rest at zero whenever nonbasic.
	//
	//lint:frozen the bound markers are shared by every child warm start
	atUpper []bool
	//lint:frozen frozen factors are adopted by struct copy; etas append copy-on-write
	fac *luFactor // frozen LU factors + eta file (nil: none)
	//lint:frozen a Basis is immutable once returned
	age int // updates absorbed since the last true factorisation
}

// NumVars returns the structural variable count of the producing problem.
func (b *Basis) NumVars() int { return b.nVars }

// NumRows returns the constraint row count of the producing problem.
func (b *Basis) NumRows() int { return len(b.entries) }

// String summarises the basis composition for diagnostics.
func (b *Basis) String() string {
	var nStruct, nLogical, nArt int
	for _, e := range b.entries {
		switch e.kind {
		case basisStructural:
			nStruct++
		case basisLogical:
			nLogical++
		case basisArtificial:
			nArt++
		}
	}
	return fmt.Sprintf("lp.Basis{rows: %d, structural: %d, logical: %d, artificial: %d}",
		len(b.entries), nStruct, nLogical, nArt)
}

// column maps an entry to its column index in a problem with n structural
// variables and m rows (canonical layout: structural, then m logicals,
// then m artificials).
func (e basisEntry) column(n, m int) int {
	switch e.kind {
	case basisLogical:
		return n + e.idx
	case basisArtificial:
		return n + m + e.idx
	default:
		return e.idx
	}
}

// entryForColumn is the inverse of column.
func entryForColumn(col, n, m int) basisEntry {
	switch {
	case col < n:
		return basisEntry{kind: basisStructural, idx: col}
	case col < n+m:
		return basisEntry{kind: basisLogical, idx: col - n}
	default:
		return basisEntry{kind: basisArtificial, idx: col - n - m}
	}
}
