package mip

// Brute-force oracle for the search corpus (corpusProblem). It
// shares no code with the solver: it imports neither lp nor core, solves no
// LP relaxation and works on a plain copy of the problem (bruteMIP, which
// the tests flatten from a Problem). It enumerates every 0/1 vector of the
// integer columns and checks it against the boxes and the rows. The only
// continuous columns in the corpus are the fixed-charge family's t, each
// capped by its box and its link row and all sharing one unit-weight budget
// row; once the binaries are fixed the best t is a fractional knapsack,
// filled greedily in decreasing objective order.

import (
	"fmt"
	"math"
	"sort"
)

// bruteFeasTol is the relative tolerance within which the oracle accepts a
// row or a box, scaled by max(1, |rhs|).
const bruteFeasTol = 1e-9

// bruteTerm is one nonzero coefficient of a row.
type bruteTerm struct {
	v int
	a float64
}

// bruteRow is one row Σ a·x {<=, ==, >=} rhs; sense is -1, 0 or +1.
type bruteRow struct {
	terms []bruteTerm
	sense int
	rhs   float64
}

// bruteMIP is a maximisation MIP in plain data: obj·x over lo <= x <= hi
// and rows, with x integral on ints.
type bruteMIP struct {
	obj    []float64
	lo, hi []float64
	rows   []bruteRow
	ints   []int
}

// bruteSolve returns the optimum of p, or feasible=false when no 0/1
// vector of the integer columns extends to a feasible point. It panics on a problem outside the shapes the oracle can
// solve exactly: an integer column that can take a value other than 0 or
// 1, a continuous column with a nonzero lower bound, or a row coupling
// continuous columns other than one unit-weight <= row.
func bruteSolve(p *bruteMIP) (best float64, feasible bool) {
	n := len(p.obj)
	isInt := make([]bool, n)
	for _, v := range p.ints {
		isInt[v] = true
		if ub := bruteBinaryCap(p, v); p.lo[v] <= -1 || ub >= 2 {
			panic(fmt.Sprintf("oracle: integer column %d ranges over [%g, %g], not {0, 1}", v, p.lo[v], ub))
		}
	}
	var conts []int
	for v := 0; v < n; v++ {
		if !isInt[v] {
			//lint:ignore floatcmp the fill assumes the exact lower bound 0 the corpus builds
			if p.lo[v] != 0 {
				panic(fmt.Sprintf("oracle: continuous column %d has lower bound %g", v, p.lo[v]))
			}
			conts = append(conts, v)
		}
	}
	// Fill order for the continuous columns: decreasing objective, ties by
	// index.
	sort.SliceStable(conts, func(a, b int) bool { return p.obj[conts[a]] > p.obj[conts[b]] })

	x := make([]float64, n)
	capOf := make([]float64, n)
	best = math.Inf(-1)
	k := len(p.ints)
	for mask := 0; mask < 1<<k; mask++ {
		for i, v := range p.ints {
			x[v] = float64(mask >> i & 1)
		}
		if !bruteFill(p, isInt, conts, x, capOf) || !bruteRowsHold(p, x) {
			continue
		}
		var obj float64
		for v, xv := range x {
			obj += p.obj[v] * xv
		}
		best, feasible = math.Max(best, obj), true
	}
	return best, feasible
}

// bruteBinaryCap is integer column v's upper limit: its box, tightened by
// every single-term <= row over it with a positive coefficient (the
// knapsack family writes x <= 1 as a row).
func bruteBinaryCap(p *bruteMIP, v int) float64 {
	ub := p.hi[v]
	for _, r := range p.rows {
		if len(r.terms) == 1 && r.terms[0].v == v && r.sense < 0 && r.terms[0].a > 0 {
			ub = math.Min(ub, r.rhs/r.terms[0].a)
		}
	}
	return ub
}

// bruteFill sets the continuous columns of x, whose integer columns are
// fixed, to their best values: each column's cap is its box tightened by
// every <= row in which it is the only continuous column, and the columns
// share at most one <= row with unit coefficients, filled greedily in conts
// order. A column with a nonpositive objective stays at 0. It reports false
// when some cap or the shared row's room is negative.
func bruteFill(p *bruteMIP, isInt []bool, conts []int, x, capOf []float64) bool {
	if len(conts) == 0 {
		return true
	}
	for _, v := range conts {
		capOf[v] = p.hi[v]
		x[v] = 0
	}
	room := math.Inf(1)
	shared := false
	for _, r := range p.rows {
		fixed, nCont, cv, ca := 0.0, 0, -1, 0.0
		for _, t := range r.terms {
			if isInt[t.v] {
				fixed += t.a * x[t.v]
			} else {
				nCont++
				cv, ca = t.v, t.a
			}
		}
		left := r.rhs - fixed
		switch {
		case nCont == 0:
			// Checked with the other rows by bruteRowsHold.
		case nCont == 1 && r.sense < 0 && ca > 0:
			capOf[cv] = math.Min(capOf[cv], left/ca)
		case nCont > 1 && r.sense < 0 && !shared && bruteUnitCont(r, isInt):
			room, shared = left, true
		default:
			panic("oracle: a row couples the continuous columns in a shape it cannot fill")
		}
	}
	if room < -bruteFeasTol*math.Max(1, math.Abs(room)) {
		return false
	}
	for _, v := range conts {
		if capOf[v] < -bruteFeasTol*math.Max(1, math.Abs(capOf[v])) {
			return false
		}
		if p.obj[v] <= 0 || room <= 0 {
			continue
		}
		if math.IsInf(capOf[v], 1) && math.IsInf(room, 1) {
			panic(fmt.Sprintf("oracle: continuous column %d is unbounded", v))
		}
		x[v] = math.Max(0, math.Min(capOf[v], room))
		room -= x[v]
	}
	return true
}

// bruteUnitCont reports whether every continuous term of r has
// coefficient 1.
func bruteUnitCont(r bruteRow, isInt []bool) bool {
	for _, t := range r.terms {
		//lint:ignore floatcmp the fixed-charge budget row is built with the exact literal 1
		if !isInt[t.v] && t.a != 1 {
			return false
		}
	}
	return true
}

// bruteRowsHold checks x against every box and row.
func bruteRowsHold(p *bruteMIP, x []float64) bool {
	for v, xv := range x {
		if xv < p.lo[v]-bruteFeasTol*math.Max(1, math.Abs(p.lo[v])) ||
			xv > p.hi[v]+bruteFeasTol*math.Max(1, math.Abs(p.hi[v])) {
			return false
		}
	}
	for _, r := range p.rows {
		var act float64
		for _, t := range r.terms {
			act += t.a * x[t.v]
		}
		tol := bruteFeasTol * math.Max(1, math.Abs(r.rhs))
		switch {
		case r.sense < 0 && act > r.rhs+tol,
			r.sense > 0 && act < r.rhs-tol,
			r.sense == 0 && math.Abs(act-r.rhs) > tol:
			return false
		}
	}
	return true
}
