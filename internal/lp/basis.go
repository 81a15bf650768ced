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
// optimality: the frozen sparse L·U factors plus eta file (fac). A child
// warm start adopts them by an O(1) struct copy — the triangular factors
// are immutable and shared, and the first eta the child appends copies the
// clipped eta file out of the shared backing (copy-on-write), so sibling
// children never race. Branch-and-bound children share their parent's
// Basis pointer, so live memory scales with the open frontier, not the
// tree. age counts the product-form updates the snapshot has absorbed
// since its last from-scratch factorisation; SolveFrom refuses snapshots
// whose eta file has gone fill-heavy and rebuilds instead, bounding
// inherited roundoff across generations.
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

// AdaptRows returns a basis usable on a problem whose constraint rows were
// rearranged relative to the producing problem's: rowMap[i] names the new
// index of old row i, or -1 when that row was dropped. newRows is the
// target problem's row count; rows of the target not named by rowMap are
// treated as freshly appended and get their own logical column basic — the
// same starting state SolveFrom gives rows appended after the snapshot.
// rowMap must be injective over its non-negative entries.
//
// The identity map (every old row keeps its index and newRows equals
// NumRows) returns b itself, snapshot factors intact — the fast path for
// re-solves whose deltas were pure bound, objective or right-hand-side
// edits. Any real rearrangement returns a new Basis carrying only the
// column set and at-upper markers: the factorisation snapshot describes
// the old row order and is dropped, so the adopting solve refactorises
// once (lp.Solution.FactorRebuilt reports it).
//
// Adaptation is positional and cannot consult the problems involved, so a
// pathological map can produce a column set SolveFrom rejects (e.g. a
// dropped row's logical basic in a surviving position colliding with that
// position's own fresh logical). Callers treat a warm-start error as "not
// adoptable" and fall back to a cold solve, exactly as for any other
// rejected basis.
func (b *Basis) AdaptRows(rowMap []int, newRows int) *Basis {
	if len(rowMap) != len(b.entries) {
		panic(fmt.Sprintf("lp: AdaptRows map covers %d rows, basis has %d", len(rowMap), len(b.entries)))
	}
	identity := newRows == len(b.entries)
	for i, j := range rowMap {
		if j >= newRows {
			panic(fmt.Sprintf("lp: AdaptRows maps row %d to %d, target has %d rows", i, j, newRows))
		}
		if j != i {
			identity = false
		}
	}
	if identity {
		return b
	}
	entries := make([]basisEntry, newRows)
	for j := range entries {
		entries[j] = basisEntry{kind: basisLogical, idx: j}
	}
	for i, e := range b.entries {
		j := rowMap[i]
		if j < 0 {
			continue // the row is gone; its basic column is released
		}
		if e.kind != basisStructural {
			// Row-indexed entry: follow its row through the map. A logical
			// or artificial of a dropped row no longer exists as a column —
			// keep position j's default own-row logical instead.
			if ni := rowMap[e.idx]; ni >= 0 {
				entries[j] = basisEntry{kind: e.kind, idx: ni}
			}
			continue
		}
		entries[j] = e
	}
	return &Basis{nVars: b.nVars, entries: entries, atUpper: b.atUpper}
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
