// Package lp implements a bounded-variable revised simplex solver for
// linear programs in the form
//
//	maximize    c·x
//	subject to  a_i·x {<=, =, >=} b_i    for each constraint i
//	            lo <= x <= hi            (default lo = 0, hi = +inf)
//
// It is the module's substitute for the commercial LP/MIP toolchain the
// paper uses (cvx + MOSEK): the DSCT-EA-FR relaxation (paper §3.2) is
// solved with it directly, and the branch-and-bound solver in package mip
// uses it for node relaxations of the DSCT-EA MIP (paper §3).
//
// Every entry point runs one core (revised.go): two-phase primal simplex
// for cold solves, dual simplex for warm starts, over a sparse LU
// factorisation of the basis with eta-file updates (factor.go). Rows are
// equilibrated before solving, pricing falls back to Bland's rule after a
// run of degenerate pivots (anti-cycling), and artificials are pivoted out
// after phase 1. Every solve runs on the rows and columns as built, with
// no reduction pass first. Problems are built row by row from sparse
// Terms and stored as a CSR+CSC pair (sparse.go).
package lp

import (
	"fmt"
	"time"
)

// Sense is a constraint direction.
type Sense int

// Constraint senses.
const (
	LE Sense = iota // a·x <= b
	GE              // a·x >= b
	EQ              // a·x == b
)

// String names the sense.
func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "=="
	default:
		return fmt.Sprintf("sense(%d)", int(s))
	}
}

// Term is one non-zero coefficient of a constraint row.
type Term struct {
	Var  int
	Coef float64
}

type row struct {
	terms []Term
	sense Sense
	rhs   float64
}

// Problem is a linear program under construction. Create it with
// NewProblem, then set the objective and add constraints. Variables are
// indexed 0..NumVars-1 and bounded to [0, +inf) unless SetBounds installs
// another box.
//
// A Problem built by Overlay shares its objective, bounds and leading
// constraint rows with the problem it was derived from; see Overlay for
// the aliasing rules.
type Problem struct {
	nVars int
	//lint:frozen may alias the base problem's objective until SetObjCoef copies it
	obj []float64
	// objShared marks obj as aliasing another problem's objective slice
	// (set by Overlay); SetObjCoef copies before the first write so the
	// base problem is never mutated through an overlay.
	objShared bool
	// lo and hi are per-variable bounds; both nil means every variable is
	// at the default [0, +inf) box. boundsShared marks them as aliasing
	// another problem's slices (set by Overlay); SetBounds copies before
	// the first write, mirroring objShared.
	//
	//lint:frozen may alias the base problem's boxes until SetBounds copies them
	lo, hi       []float64
	boundsShared bool
	// base is an immutable row prefix shared with the problem this one
	// was derived from by Overlay (nil for ordinary problems). rows holds
	// the rows owned by this problem; the effective constraint list is
	// base followed by rows.
	//
	//lint:frozen row prefix is shared with every overlay of the same base
	base []row
	rows []row
}

// NewProblem returns an empty maximization problem over nVars non-negative
// variables. It panics for nVars <= 0.
func NewProblem(nVars int) *Problem {
	if nVars <= 0 {
		panic(fmt.Sprintf("lp: nVars must be positive, got %d", nVars))
	}
	return &Problem{nVars: nVars, obj: make([]float64, nVars)}
}

// NumVars returns the number of structural variables.
func (p *Problem) NumVars() int { return p.nVars }

// NumConstraints returns the number of constraint rows.
func (p *Problem) NumConstraints() int { return len(p.base) + len(p.rows) }

// rowAt returns constraint row i (shared base prefix first, then owned
// rows). The returned row must be treated as read-only.
func (p *Problem) rowAt(i int) row {
	if i < len(p.base) {
		return p.base[i]
	}
	return p.rows[i-len(p.base)]
}

// Constraint returns row i's terms, sense and right-hand side. The terms
// slice aliases the problem's storage and must be treated as read-only.
// Like AddConstraint's input, terms may repeat a variable; readers must
// accumulate duplicates the way the solver does. It panics when i is
// out of range. Callers that check a point against the rows, like the mip
// rounding-candidate check, use this to read rows without access to the
// package internals.
func (p *Problem) Constraint(i int) ([]Term, Sense, float64) {
	if i < 0 || i >= p.NumConstraints() {
		panic(fmt.Sprintf("lp: constraint %d out of range [0,%d)", i, p.NumConstraints()))
	}
	r := p.rowAt(i)
	return r.terms, r.sense, r.rhs
}

// SetObjCoef sets the objective coefficient of variable v.
//
//lint:freezer copies the shared objective before the first write (copy-on-write)
func (p *Problem) SetObjCoef(v int, c float64) {
	p.checkVar(v)
	if p.objShared {
		p.obj = append([]float64(nil), p.obj...)
		p.objShared = false
	}
	p.obj[v] = c
}

// ObjCoef returns the objective coefficient of variable v.
func (p *Problem) ObjCoef(v int) float64 {
	p.checkVar(v)
	return p.obj[v]
}

// AddConstraint appends the constraint Σ terms {sense} rhs and returns its
// row index. Terms may repeat a variable; coefficients accumulate.
func (p *Problem) AddConstraint(terms []Term, sense Sense, rhs float64) int {
	for _, t := range terms {
		p.checkVar(t.Var)
	}
	p.rows = append(p.rows, row{terms: append([]Term(nil), terms...), sense: sense, rhs: rhs})
	return p.NumConstraints() - 1
}

func (p *Problem) checkVar(v int) {
	if v < 0 || v >= p.nVars {
		panic(fmt.Sprintf("lp: variable %d out of range [0,%d)", v, p.nVars))
	}
}

// Clone returns an independent deep copy of the problem: the result shares
// no storage with p (overlay sharing is flattened away).
//
//lint:freezer initialises the copy's owned arrays before publication
func (p *Problem) Clone() *Problem {
	nr := p.NumConstraints()
	c := &Problem{
		nVars: p.nVars,
		obj:   append([]float64(nil), p.obj...),
		rows:  make([]row, nr),
	}
	if p.lo != nil {
		c.lo = append([]float64(nil), p.lo...)
		c.hi = append([]float64(nil), p.hi...)
	}
	for i := 0; i < nr; i++ {
		r := p.rowAt(i)
		c.rows[i] = row{terms: append([]Term(nil), r.terms...), sense: r.sense, rhs: r.rhs}
	}
	return c
}

// Overlay returns a lightweight extension of p: a problem that sees p's
// objective, bounds and constraint rows and accepts further AddConstraint
// and SetBounds calls without copying p. Creating an overlay is O(1)
// (O(rows) only when p is itself an overlay), and appending k rows costs
// O(k) — compare Clone, which deep-copies every coefficient. Branch-and-
// bound uses this to derive node problems from the immutable root LP in
// O(depth): bound tightenings go through SetBounds (which copies the two
// bound slices once per overlay, on first write) and any remaining cuts
// through AddConstraint.
//
// The overlay aliases p's data: p must not be modified while any overlay
// derived from it is alive. Overlays themselves are freely mutable —
// appended rows are owned, and SetObjCoef/SetBounds copy the aliased
// slices before the first write. Concurrent overlays of the same base are
// safe as long as the base stays untouched.
func (p *Problem) Overlay() *Problem {
	base := p.rows
	if p.base != nil {
		// p is itself an overlay; flatten the two-level prefix into one
		// shared slice of row headers (terms stay shared).
		base = make([]row, 0, p.NumConstraints())
		base = append(base, p.base...)
		base = append(base, p.rows...)
	}
	return &Problem{
		nVars: p.nVars,
		obj:   p.obj, objShared: true,
		lo: p.lo, hi: p.hi, boundsShared: p.lo != nil,
		base: base,
	}
}

// Status reports how a solve terminated.
type Status int

// Solver statuses.
const (
	// Optimal means an optimal basic feasible solution was found.
	Optimal Status = iota
	// Infeasible means the constraint system has no solution.
	Infeasible
	// Unbounded means the objective can grow without limit.
	Unbounded
	// IterLimit means the pivot budget was exhausted.
	IterLimit
	// TimeLimit means the wall-clock deadline passed.
	TimeLimit
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	case TimeLimit:
		return "time-limit"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// PricingMode selects the entering-column pricing rule. Pricing only
// chooses the pivot order: every mode reaches the same optimum, and every
// mode yields to Bland's rule after a degenerate run, so the anti-cycling
// guarantee is mode-independent.
type PricingMode int

// Pricing modes.
const (
	// PricingAuto picks the rule from the problem: partial pricing with
	// candidate lists once the priced column space reaches
	// pricingAutoCols (where the O(n) per-pivot scan dominates), Dantzig
	// below it.
	PricingAuto PricingMode = iota
	// PricingDantzig scans every column and enters the one with the
	// largest sign-aware reduced cost |d_j| — the classic textbook rule,
	// O(n) per pivot.
	PricingDantzig
	// PricingPartial prices a bounded candidate list with devex scores
	// d_j²/w_j (Forrest–Goldfarb reference weights, an approximation of
	// steepest edge) and refills it by scanning rotating sections of the
	// column space — per-pivot work proportional to the candidate list and
	// section, not to n. Optimality is still certified by a full wrap of
	// the column space finding no candidate.
	PricingPartial
)

// String names the mode.
func (p PricingMode) String() string {
	switch p {
	case PricingAuto:
		return "auto"
	case PricingDantzig:
		return "dantzig"
	case PricingPartial:
		return "partial"
	default:
		return fmt.Sprintf("pricingmode(%d)", int(p))
	}
}

// Options tunes a solve. The zero value uses defaults.
type Options struct {
	// MaxIters caps simplex pivots across both phases
	// (default 100·(rows+cols)+1000).
	MaxIters int
	// Deadline aborts the solve when passed (zero means none).
	Deadline time.Time
	// Tol is the pivot/feasibility tolerance (default 1e-9).
	Tol float64
	// Pricing selects the entering-column rule (default PricingAuto:
	// partial pricing on wide problems, Dantzig otherwise). All rules
	// reach the same optimum; only the pivot order differs.
	Pricing PricingMode
}

// Solution is the result of a solve. X is populated for Optimal and, on a
// best-effort basis, for IterLimit/TimeLimit (the current basic solution,
// which may be primal-feasible but suboptimal).
type Solution struct {
	Status     Status
	Objective  float64
	X          []float64
	Iterations int

	// FactorRebuilt reports that a warm start (SolveFrom) could not adopt
	// the supplied basis snapshot's factorisation — missing (a snapshot
	// from AdaptRows carries none), dimension-mismatched after appended
	// rows, fill-heavy, or failing the B·xb ≈ q residual check — and the
	// solve refactorised the inherited column set from scratch instead.
	// Always false for cold solves.
	FactorRebuilt bool

	// DualFeasible reports that the solve ended on a dual-feasible basis,
	// making Objective a valid upper bound on the optimum even when the
	// solve was truncated. Warm starts (SolveFrom) set it when the solve
	// reached Optimal or when a pivot/deadline limit struck during the
	// dual-simplex repair phase — which preserves dual feasibility pivot by
	// pivot — so branch-and-bound strong-branching probes can run with a
	// tiny Options.MaxIters and still trust the truncated objective as a
	// bound. Limits hit in the primal clean-up phase, and every cold-solve
	// status other than Optimal, leave it false: those objectives bound
	// nothing.
	DualFeasible bool
}
