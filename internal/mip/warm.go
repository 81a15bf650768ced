package mip

import (
	"repro/internal/lp"
)

// maxWarmObs bounds the pseudo-cost observations exported in a WarmState:
// the newest maxWarmObs observations on the incumbent's chain are kept.
// Old observations age out — across a long event stream the instance
// drifts, and stale per-variable degradation estimates would misrank
// branching candidates more than no estimate at all.
const maxWarmObs = 512

// WarmObs is one exported pseudo-cost observation: branching variable Var
// in direction Dir (0 = down, 1 = up) degraded the relaxation objective by
// Delta per unit of bound movement. Observations are ordered oldest-first.
type WarmObs struct {
	Var   int
	Dir   int8
	Delta float64
}

// WarmState carries search state from one Solve to the next over a mutated
// problem — the cross-solve analogue of the parent→child inheritance
// inside one tree. Produced by Options.ExportWarm (Result.Warm), consumed
// by Options.Warm. The contract importers must keep:
//
//   - The consuming problem's first min(RootBasis.NumRows(), current rows)
//     rows are the producing problem's rows, possibly with edited
//     right-hand sides, appended terms or changed variable bounds, and
//     never reordered. Variables may have been appended (never removed —
//     deactivate by boxing to [0,0] instead), so column indices stay
//     stable.
//   - Obs indices refer to consuming-problem variables (stable under the
//     append-only rule above).
//
// RootBasis is the producing root relaxation's optimal basis; Solve adapts
// it to the consuming row count with lp.Basis.AdaptRows and falls back to
// a cold root solve when it is not adoptable. A zero WarmState imports as
// a no-op. WarmState is read-only to the solver: the same value may be
// imported by several Solves.
type WarmState struct {
	RootBasis *lp.Basis
	Obs       []WarmObs
}

// importWarm installs w into the searcher before the search: the root
// basis is adapted to the current row layout and the observations are
// rebuilt into the root node's pseudo-cost chain.
func (s *searcher) importWarm(w *WarmState) {
	if w.RootBasis != nil && w.RootBasis.NumVars() <= s.prob.LP.NumVars() {
		// The producer's rows are the consumer's leading rows; rows the
		// consumer no longer has are dropped, rows it appended since start
		// with their own logical basic.
		rows := s.prob.LP.NumConstraints()
		rowMap := make([]int, w.RootBasis.NumRows())
		for i := range rowMap {
			rowMap[i] = i
			if i >= rows {
				rowMap[i] = -1
			}
		}
		s.rootFrom = w.RootBasis.AdaptRows(rowMap, rows)
	}
	// Obs is oldest-first; the chain is newest-first, so a forward walk
	// prepending each observation leaves the newest at the head.
	for _, o := range w.Obs {
		s.rootPC = &pcObs{v: o.Var, dir: o.Dir, delta: o.Delta, prev: s.rootPC}
	}
}

// exportWarm assembles the Result.Warm payload after the search: the root
// relaxation basis captured when the root node was processed, and the
// newest maxWarmObs pseudo-cost observations on the incumbent's chain,
// reversed to oldest-first.
func (s *searcher) exportWarm() *WarmState {
	w := &WarmState{RootBasis: s.rootBasis}
	var newest []WarmObs
	for o := s.incumbentPC; o != nil && len(newest) < maxWarmObs; o = o.prev {
		newest = append(newest, WarmObs{Var: o.v, Dir: o.dir, Delta: o.delta})
	}
	if n := len(newest); n > 0 {
		w.Obs = make([]WarmObs, n)
		for i, o := range newest {
			w.Obs[n-1-i] = o
		}
	}
	return w
}
