package lp

import (
	"fmt"
	"math"
)

// SetBounds restricts variable v to the box [lo, hi]. hi may be +Inf for
// an unbounded-above variable; lo must be finite. lo == hi fixes the
// variable. It panics on NaN endpoints, non-finite lo, or hi < lo.
//
// Bounds are handled natively by the simplex core (nonbasic variables
// rest at either bound; no rows are added), so a box constraint declared
// here keeps the basis dimension equal to the true row count. The default
// box for every variable is [0, +Inf).
//
//lint:freezer copies shared bound slices before the first write (copy-on-write)
func (p *Problem) SetBounds(v int, lo, hi float64) {
	p.checkVar(v)
	if math.IsNaN(lo) || math.IsNaN(hi) {
		panic(fmt.Sprintf("lp: SetBounds(%d): NaN bound [%v, %v]", v, lo, hi))
	}
	if math.IsInf(lo, 0) {
		panic(fmt.Sprintf("lp: SetBounds(%d): lower bound must be finite, got %v", v, lo))
	}
	if hi < lo {
		panic(fmt.Sprintf("lp: SetBounds(%d): empty box [%v, %v]", v, lo, hi))
	}
	p.materializeBounds()
	p.lo[v] = lo
	p.hi[v] = hi
}

// Bounds returns the box [lo, hi] of variable v ([0, +Inf) by default).
func (p *Problem) Bounds(v int) (lo, hi float64) {
	p.checkVar(v)
	return p.boundsAt(v)
}

// boundsAt is Bounds without the range check, for solver hot paths.
func (p *Problem) boundsAt(v int) (lo, hi float64) {
	if p.lo == nil {
		return 0, math.Inf(1)
	}
	return p.lo[v], p.hi[v]
}

// materializeBounds gives p owned, writable bound slices: it allocates the
// default box when none exists and copies shared slices before the first
// write (the objShared copy-on-write pattern).
//
//lint:freezer the copy-on-write transition itself: replaces aliased slices with owned ones
func (p *Problem) materializeBounds() {
	switch {
	case p.lo == nil:
		p.lo = make([]float64, p.nVars)
		p.hi = make([]float64, p.nVars)
		inf := math.Inf(1)
		for v := range p.hi {
			p.hi[v] = inf
		}
		p.boundsShared = false
	case p.boundsShared:
		p.lo = append([]float64(nil), p.lo...)
		p.hi = append([]float64(nil), p.hi...)
		p.boundsShared = false
	}
}
