package lp

// In-place mutation API for incremental re-solves. The incremental engine
// (internal/incremental) keeps one live Problem and applies
// scheduler events — task arrivals, departures, machine joins/leaves,
// budget renegotiations — as deltas against it instead of rebuilding the
// model: new columns via AddVariables, new rows via AddConstraint,
// coefficient extensions of existing rows via AppendTerms, right-hand-side
// edits via SetRHS and entity removal via Deactivate. Every mutator
// preserves the copy-on-write discipline Overlay relies on: storage that
// may be shared with another Problem (a base prefix, an aliased objective
// or bound slice, a term slice referenced by an overlay) is copied before
// the first write, so mutating a problem never changes what a previously
// derived problem sees.
//
// The one contract callers must keep is Overlay's: a Problem must not be
// mutated while an overlay derived FROM IT is alive. Mutate between
// solves, never during one.

import (
	"fmt"
	"math"
)

// materializeRows gives p an owned row-header slice covering every
// constraint, flattening a shared base prefix (set by Overlay) into it.
// Term slices stay shared until AppendTerms copies the edited row's.
//
//lint:freezer the copy-on-write transition for row headers: replaces the aliased prefix with owned headers
func (p *Problem) materializeRows() {
	if p.base == nil {
		return
	}
	rows := make([]row, 0, p.NumConstraints())
	rows = append(rows, p.base...)
	rows = append(rows, p.rows...)
	p.base = nil
	p.rows = rows
}

// SetRHS replaces the right-hand side of constraint row i, leaving its
// terms and sense untouched — the delta for budget renegotiations and
// group-cardinality edits. It panics on an out-of-range row or a NaN rhs.
//
// A basis produced before the edit warm-starts the edited problem
// directly: the basic column set is independent of b, so the dual simplex
// repairs the (at most one-row) primal infeasibility in a few pivots.
//
//lint:hotpath=bounded one header write after the bounded one-time row materialisation
func (p *Problem) SetRHS(i int, rhs float64) {
	if i < 0 || i >= p.NumConstraints() {
		panic(fmt.Sprintf("lp: SetRHS(%d) out of range [0,%d)", i, p.NumConstraints()))
	}
	if math.IsNaN(rhs) {
		panic(fmt.Sprintf("lp: SetRHS(%d): NaN right-hand side", i))
	}
	p.materializeRows()
	p.rows[i].rhs = rhs
}

// AppendTerms adds coefficients to existing constraint row i (the delta
// that extends a budget, assignment or staircase row when a new task or
// machine brings new columns into scope). Like AddConstraint, appended
// terms may repeat a variable already on the row; coefficients accumulate.
// The row's term slice is copied before the append, so problems that
// shared it (clones of headers via Overlay flattening) are unaffected.
//
//lint:hotpath=bounded copies only the one edited row's terms per call
func (p *Problem) AppendTerms(i int, terms []Term) {
	if i < 0 || i >= p.NumConstraints() {
		panic(fmt.Sprintf("lp: AppendTerms(%d) out of range [0,%d)", i, p.NumConstraints()))
	}
	for _, t := range terms {
		p.checkVar(t.Var)
	}
	if len(terms) == 0 {
		return
	}
	p.materializeRows()
	r := &p.rows[i]
	nt := make([]Term, 0, len(r.terms)+len(terms))
	nt = append(nt, r.terms...)
	nt = append(nt, terms...)
	r.terms = nt
}

// AddVariables appends k new structural variables and returns the index of
// the first: objective coefficient 0 and the default [0, +Inf) box, ready
// for SetObjCoef/SetBounds and for rows that reference them. Existing rows
// are unchanged (the new columns have zero coefficients everywhere until
// AppendTerms or AddConstraint mentions them).
//
// Shared objective and bound storage is copied before the extension, so
// the problem this one was derived from keeps its own variable count. A
// Basis produced before the append still warm-starts the grown problem:
// new columns enter nonbasic at their lower bound, which leaves the basic
// column set — and hence the snapshot's factorisation — intact.
//
//lint:freezer copies shared objective/bound storage before the extension (copy-on-write growth)
func (p *Problem) AddVariables(k int) int {
	if k <= 0 {
		panic(fmt.Sprintf("lp: AddVariables(%d): count must be positive", k))
	}
	first := p.nVars
	obj := make([]float64, p.nVars+k)
	copy(obj, p.obj)
	p.obj = obj
	p.objShared = false
	if p.lo != nil {
		lo := make([]float64, p.nVars+k)
		hi := make([]float64, p.nVars+k)
		copy(lo, p.lo)
		copy(hi, p.hi)
		inf := math.Inf(1)
		for v := p.nVars; v < len(hi); v++ {
			hi[v] = inf
		}
		p.lo, p.hi = lo, hi
		p.boundsShared = false
	}
	p.nVars += k
	return first
}

// Deactivate fixes variable v to zero by boxing it to [0, 0] — the column
// analogue of dropping it. Every row coefficient of v becomes inert, the
// objective contribution vanishes, and a basis that had v basic stays
// adoptable (the warm start's dual phase drives the fixed column out).
// Departed tasks and withdrawn machines are deactivated, never deleted, so
// column indices of the live problem are stable for the lifetime of the
// engine.
//
//lint:hotpath=bounded two bound writes after the bounded one-time box materialisation
func (p *Problem) Deactivate(v int) {
	p.SetBounds(v, 0, 0)
}
