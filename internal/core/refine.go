package core

import (
	"math"

	"repro/internal/numeric"
	"repro/internal/rng"
	"repro/internal/task"
)

// RefineOptions tunes RefineProfile.
type RefineOptions struct {
	Greedy GreedyOptions
	// MaxSweeps caps the outer improvement loop (default 64).
	MaxSweeps int
	// LineSearchIters is the ternary-search depth per exchange (default 48).
	LineSearchIters int
	// Tol is the minimum accuracy improvement worth applying (default 1e-9).
	Tol float64
	// DisablePolish skips the random-direction polish pass that guards
	// against stalls of pairwise exchanges at kinks of the piecewise-linear
	// value function (ablation).
	DisablePolish bool
	// Seed drives the deterministic polish directions.
	Seed int64
}

func (o *RefineOptions) defaults() {
	if o.MaxSweeps == 0 {
		o.MaxSweeps = 64
	}
	if o.LineSearchIters == 0 {
		o.LineSearchIters = 48
	}
	if o.Tol == 0 {
		o.Tol = 1e-9
	}
}

// RefineProfile is the paper's RefineProfile (Algorithm 3) realised as
// energy exchanges between machines: starting from a profile (normally the
// naive one), it repeatedly moves energy from machine r' to machine r —
// increasing p_r by e/P_r and decreasing p_{r'} by e/P_{r'} — whenever the
// move improves the optimal accuracy V(p) of the inner greedy; it also
// spends any slack budget. The exchange amount is chosen by exact line
// search on the concave function e -> V(p(e)), which generalises the
// paper's accuracy-per-Joule (ψ = slope·E_r) pair ordering: a move is
// improving exactly when the energy marginal gain on r exceeds the energy
// marginal loss on r'. A deterministic random-direction polish pass guards
// against stalls at kinks (where single-pair moves are blocked but a joint
// move improves). Returns the refined profile and the number of sweeps.
func RefineProfile(in *task.Instance, p Profile, opts RefineOptions) (Profile, int) {
	return refineProfile(NewAllocator(in.Tasks, opts.Greedy), in, p, opts)
}

// refineProfile is RefineProfile against a prepared allocator, which
// SolveFR shares with its final Value.
func refineProfile(alloc *Allocator, in *task.Instance, p Profile, opts RefineOptions) (Profile, int) {
	opts.defaults()
	m := in.M()
	dMax := in.MaxDeadline()
	p = p.Clone()
	// Nothing to refine when the budget lets every machine run until d_max.
	allFull := true
	for _, v := range p {
		if v < dMax {
			allFull = false
			break
		}
	}
	if allFull {
		return p, 0
	}
	value := func(q Profile) float64 { return alloc.total(in, q) }
	cur := value(p)
	scratch := make(Profile, m) // every line-search probe is evaluated here
	polishSrc := rng.New(opts.Seed, "core/refine-polish")

	sweeps := 0
	for ; sweeps < opts.MaxSweeps; sweeps++ {
		improved := false

		// Spend slack budget: extend each machine with the budget left over
		// (line search over the extension; V is non-decreasing in p_r, so
		// this only ever helps).
		slack := in.Budget - p.Energy(in)
		if slack > opts.Tol {
			for r := 0; r < m; r++ {
				slack = in.Budget - p.Energy(in)
				if slack <= opts.Tol || p[r] >= dMax {
					continue
				}
				eMax := math.Min(slack, (dMax-p[r])*in.Machines[r].Power)
				if eMax <= 0 {
					continue
				}
				best, gain := maximizeAlong(p, scratch, cur, func(q Profile, e float64) {
					q[r] += e / in.Machines[r].Power
				}, eMax, value, opts.LineSearchIters)
				if gain > opts.Tol {
					p = best
					cur += gain
					improved = true
				}
			}
		}

		// Pairwise energy exchanges.
		for r := 0; r < m; r++ {
			for rp := 0; rp < m; rp++ {
				if r == rp || p[rp] <= 0 || p[r] >= dMax {
					continue
				}
				eMax := math.Min(p[rp]*in.Machines[rp].Power, (dMax-p[r])*in.Machines[r].Power)
				if eMax <= 0 {
					continue
				}
				best, gain := maximizeAlong(p, scratch, cur, func(q Profile, e float64) {
					q[r] += e / in.Machines[r].Power
					q[rp] -= e / in.Machines[rp].Power
					if q[rp] < 0 {
						q[rp] = 0
					}
				}, eMax, value, opts.LineSearchIters)
				if gain > opts.Tol {
					p = best
					cur += gain
					improved = true
				}
			}
		}

		if improved {
			continue
		}
		if opts.DisablePolish {
			break
		}
		// Polish: joint random directions in the feasible cone.
		if q, gain := polish(in, p, scratch, cur, value, polishSrc, opts); gain > opts.Tol {
			p = q
			cur += gain
			continue
		}
		break
	}
	return p, sweeps
}

// maximizeAlong ternary-searches the concave map e -> V(apply(p, e)) over
// [0, eMax] and returns the best profile and its gain over cur. Every
// probe is evaluated on scratch; only the winner is cloned.
func maximizeAlong(p, scratch Profile, cur float64, apply func(Profile, float64), eMax float64,
	value func(Profile) float64, iters int) (Profile, float64) {
	eval := func(e float64) float64 {
		copy(scratch, p)
		apply(scratch, e)
		return value(scratch)
	}
	lo, hi := 0.0, eMax
	for i := 0; i < iters && hi-lo > 1e-12*math.Max(1, eMax); i++ {
		m1 := lo + (hi-lo)/3
		m2 := hi - (hi-lo)/3
		if eval(m1) < eval(m2) {
			lo = m1
		} else {
			hi = m2
		}
	}
	// Candidate points: interval midpoint and the full move.
	bestE := (lo + hi) / 2
	bestV := eval(bestE)
	if vFull := eval(eMax); vFull > bestV {
		bestE, bestV = eMax, vFull
	}
	best := p.Clone()
	apply(best, bestE)
	return best, bestV - cur
}

// polish tries a handful of deterministic random joint directions that
// respect the budget hyperplane and box; it returns an improved profile
// when one is found.
func polish(in *task.Instance, p, scratch Profile, cur float64, value func(Profile) float64,
	src *rng.Source, opts RefineOptions) (Profile, float64) {
	m := in.M()
	dMax := in.MaxDeadline()
	budgetTight := in.Budget-p.Energy(in) <= opts.Tol
	for attempt := 0; attempt < 8*m; attempt++ {
		dir := make([]float64, m) // energy-space direction
		for r := range dir {
			dir[r] = src.Uniform(-1, 1)
		}
		if budgetTight {
			// Project onto Σ dir = 0 in energy space so the move stays on
			// the budget face.
			var mean float64
			for _, d := range dir {
				mean += d
			}
			mean /= float64(m)
			for r := range dir {
				dir[r] -= mean
			}
		}
		// Maximum step keeping 0 <= p_r <= dMax (and the budget when not
		// tight: moving along dir changes energy by Σ dir · e).
		eMax := math.Inf(1)
		for r := range dir {
			pw := in.Machines[r].Power
			if dir[r] > 0 {
				eMax = math.Min(eMax, (dMax-p[r])*pw/dir[r])
			} else if dir[r] < 0 {
				eMax = math.Min(eMax, p[r]*pw/-dir[r])
			}
		}
		if !budgetTight {
			var sum float64
			for _, d := range dir {
				sum += d
			}
			if sum > 0 {
				eMax = math.Min(eMax, (in.Budget-p.Energy(in))/sum)
			}
		}
		if !numeric.IsFinite(eMax) || eMax <= 0 {
			continue
		}
		q, gain := maximizeAlong(p, scratch, cur, func(qq Profile, e float64) {
			for r := range dir {
				qq[r] += e * dir[r] / in.Machines[r].Power
				if qq[r] < 0 {
					qq[r] = 0
				}
				if qq[r] > dMax {
					qq[r] = dMax
				}
			}
		}, eMax, value, opts.LineSearchIters)
		if gain > opts.Tol {
			return q, gain
		}
	}
	return p, 0
}
