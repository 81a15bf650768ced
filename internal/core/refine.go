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
	// LineSearchIters is the most ternary-search iterations one line
	// search runs (default 48); a search stops sooner once its samples
	// prove that no step gains Tol, and runs none when the dual bound
	// proves it first.
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
// spends any slack budget. The exchange amount is chosen by a ternary line
// search on the concave function e -> V(p(e)), which generalises the
// paper's accuracy-per-Joule (ψ = slope·E_r) pair ordering: a move is
// improving exactly when the energy marginal gain on r exceeds the energy
// marginal loss on r'. A line search is skipped when the dual of the
// inner greedy bounds its gain below Tol, and stops early once its samples
// prove that no point of the segment gains Tol (see maximizeAlong). A
// deterministic random-direction polish pass guards against stalls at
// kinks (where single-pair moves are blocked but a joint move improves).
// Returns the refined profile and the number of sweeps.
func RefineProfile(in *task.Instance, p Profile, opts RefineOptions) (Profile, int) {
	return refineProfile(NewAllocator(in.Tasks, opts.Greedy), in, p, opts)
}

// refiner is one refinement run: the allocator that evaluates V(p) and
// holds the line-search samples, plus the probe profile and polish
// direction every line search reuses, and the bound of the last reprice.
type refiner struct {
	alloc   *Allocator
	in      *task.Instance
	opts    RefineOptions
	scratch Profile   // every line-search probe is evaluated here
	dir     []float64 // polish's energy-space direction
	src     *rng.Source

	// V(p + e·d) ≤ bound + e·Σ_r (d_r > 0 ? up[r] : down[r])·d_r at the
	// profile p of the last reprice; bound is +Inf before the first.
	bound    float64
	up, down []float64
}

// newRefiner prepares a refinement run; opts must carry their defaults.
func newRefiner(alloc *Allocator, in *task.Instance, opts RefineOptions) *refiner {
	return &refiner{
		alloc:   alloc,
		in:      in,
		opts:    opts,
		scratch: make(Profile, in.M()),
		dir:     make([]float64, in.M()),
		src:     rng.New(opts.Seed, "core/refine-polish"),
		bound:   math.Inf(1),
		up:      make([]float64, in.M()),
		down:    make([]float64, in.M()),
	}
}

// reprice is the dual pass at profile p, run at the start of a
// refinement and after every accepted move: one V(p) evaluation, counted
// as a probe, whose allocation greedyDual turns into capacity prices λ.
// It returns V(p).
// Weak duality and the concavity of C_k(p) = Σ_r s_r·min(d_k, p_r) bound
// V(p + e·d) by D_λ(C(p)) + e·Σ_r g_r·d_r for every step e ≥ 0 that stays
// in the boxes, with g_r = s_r·Σ_{k: d_k > p_r} λ_k where d_r > 0 (up)
// and s_r·Σ_{k: d_k ≥ p_r} λ_k where d_r < 0 (down), because C_k has a
// kink at p_r = d_k. Any λ ≥ 0 gives a valid bound; greedy's dual makes
// D_λ(C(p)) equal V(p) up to rounding.
//
//lint:hotpath once per accepted refinement move; pinned to zero allocations
func (rf *refiner) reprice(p Profile) float64 {
	a := rf.alloc
	a.probes++
	capsInto(a.caps, rf.in, p)
	a.greedyDual(a.caps)
	rf.bound = a.dualValue(a.caps)
	rf.gradient(p)
	return TotalAccuracy(rf.in.Tasks, a.work)
}

// gradient sets rf.up and rf.down at p from the prices a.price.
//
//lint:hotpath once per reprice; pinned to zero allocations
func (rf *refiner) gradient(p Profile) {
	tasks, price := rf.in.Tasks, rf.alloc.price
	for r, mc := range rf.in.Machines {
		rf.up[r] = mc.Speed * price[firstDeadline(tasks, p[r], false)]
		rf.down[r] = mc.Speed * price[firstDeadline(tasks, p[r], true)]
	}
}

// firstDeadline returns the first task (deadline order) with d_j > x, or
// d_j ≥ x when orEqual, and len(tasks) when there is none.
//
//lint:hotpath called twice per machine by gradient
func firstDeadline(tasks []task.Task, x float64, orEqual bool) int {
	lo, hi := 0, len(tasks)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if d := tasks[mid].Deadline; d > x || orEqual && d >= x {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// ascent is machine r's term of the bound's slope when p_r moves at rate
// d per unit step.
func (rf *refiner) ascent(r int, d float64) float64 {
	if d > 0 {
		return d * rf.up[r]
	}
	return d * rf.down[r]
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
	rf := newRefiner(alloc, in, opts)
	cur := rf.reprice(p)

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
				extend := func(q Profile, e float64) {
					q[r] += e / in.Machines[r].Power
				}
				slope := rf.ascent(r, 1/in.Machines[r].Power)
				if e, gain := rf.maximizeAlong(p, cur, extend, eMax, slope); gain > opts.Tol {
					extend(p, e)
					cur += gain
					improved = true
					rf.reprice(p)
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
				exchange := func(q Profile, e float64) {
					q[r] += e / in.Machines[r].Power
					q[rp] -= e / in.Machines[rp].Power
					if q[rp] < 0 {
						q[rp] = 0
					}
				}
				slope := rf.ascent(r, 1/in.Machines[r].Power) + rf.ascent(rp, -1/in.Machines[rp].Power)
				if e, gain := rf.maximizeAlong(p, cur, exchange, eMax, slope); gain > opts.Tol {
					exchange(p, e)
					cur += gain
					improved = true
					rf.reprice(p)
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
		if gain := rf.polish(p, cur); gain > opts.Tol {
			cur += gain
			rf.reprice(p)
			continue
		}
		break
	}
	return p, sweeps
}

// sample is one line-search probe: f(e) = v.
type sample struct{ e, v float64 }

// maximizeAlong ternary-searches the concave map f(e) = V(apply(p, e))
// over [0, eMax] and returns the best step and its gain over cur = f(0).
// Every probe is evaluated on rf.scratch; the caller applies the step.
//
// slope is the bound's slope along the direction (see reprice and
// ascent), so no step gains more than rf.bound − cur + eMax·max(0, slope).
// When that is within Tol/2, the search returns (0, 0) without a probe.
// After each iteration the samples taken so far bound f through their
// concave envelope (envelopeMax). Once that bound is within Tol/2 of cur,
// no step can gain more than Tol, the least gain any caller accepts, so
// the search returns (0, 0) without probing further: the full search
// would have found a gain the caller rejects. The Tol/2 margin absorbs
// the rounding in V's evaluations (DESIGN.md §4), so every refined profile
// is the one the full search yields.
func (rf *refiner) maximizeAlong(p Profile, cur float64, apply func(Profile, float64), eMax, slope float64) (float64, float64) {
	if rf.bound-cur+eMax*max(0, slope) <= rf.opts.Tol/2 {
		return 0, 0
	}
	eval := func(e float64) float64 {
		copy(rf.scratch, p)
		apply(rf.scratch, e)
		return rf.alloc.total(rf.in, rf.scratch)
	}
	samples := insertSample(rf.alloc.samples[:0], 0, cur)
	lo, hi := 0.0, eMax
	for i := 0; i < rf.opts.LineSearchIters && hi-lo > 1e-12*math.Max(1, eMax); i++ {
		m1 := lo + (hi-lo)/3
		m2 := hi - (hi-lo)/3
		v1, v2 := eval(m1), eval(m2)
		samples = insertSample(insertSample(samples, m1, v1), m2, v2)
		if envelopeMax(samples, eMax)-cur <= rf.opts.Tol/2 {
			rf.alloc.samples = samples
			return 0, 0
		}
		if v1 < v2 {
			lo = m1
		} else {
			hi = m2
		}
	}
	rf.alloc.samples = samples
	// Candidate points: interval midpoint and the full move.
	bestE := (lo + hi) / 2
	bestV := eval(bestE)
	if vFull := eval(eMax); vFull > bestV {
		bestE, bestV = eMax, vFull
	}
	return bestE, bestV - cur
}

// insertSample adds the probe f(e) = v to s, which is sorted by e.
//
//lint:hotpath runs twice per ternary-search iteration; the buffer is reused across line searches
func insertSample(s []sample, e, v float64) []sample {
	var last sample
	s = append(s, last)
	i := len(s) - 1
	for ; i > 0 && s[i-1].e > e; i-- {
		s[i] = s[i-1]
	}
	s[i].e, s[i].v = e, v
	return s
}

// envelopeMax bounds the maximum over [0, eMax] of a concave f sampled at
// s (sorted by e, starting at e = 0). By concavity, f lies below the
// extension of every chord between two samples outside the chord's own
// span. A gap between two samples is therefore bounded by the extensions
// of its neighbouring chords — the one ending at its left sample and the
// one starting at its right sample — and the stretch past the last sample
// by the last chord. The bound is at least every sample, +Inf when a gap
// has no neighbouring chord, and exact when f is linear.
//
//lint:hotpath runs after every ternary-search iteration of RefineProfile's line searches
func envelopeMax(s []sample, eMax float64) float64 {
	k := len(s)
	if k < 3 {
		return math.Inf(1)
	}
	best := math.Inf(-1)
	for _, q := range s {
		best = max(best, q.v)
	}
	for i := 0; i+1 < k; i++ {
		a, b := s[i], s[i+1]
		w := b.e - a.e
		switch {
		case i == 0: // only the right neighbour, extended back to a
			best = max(best, b.v-chordSlope(b, s[i+2])*w)
		case i+2 == k: // only the left neighbour, extended forward to b
			best = max(best, a.v+chordSlope(s[i-1], a)*w)
		default:
			best = max(best, tentMax(a.v, b.v, chordSlope(s[i-1], a), chordSlope(b, s[i+2]), w))
		}
	}
	if last := s[k-1]; eMax > last.e {
		best = max(best, last.v+chordSlope(s[k-2], last)*(eMax-last.e))
	}
	return best
}

// chordSlope is the slope of the chord from sample a to sample b.
//
//lint:hotpath called per gap by envelopeMax
func chordSlope(a, b sample) float64 { return (b.v - a.v) / (b.e - a.e) }

// tentMax is the maximum over t in [0, w] of min(va + sl·t, vb − sr·(w − t)):
// the lower of the line through (0, va) with slope sl and the line through
// (w, vb) with slope sr. The minimum of two lines is concave, so its
// maximum lies at an end of the gap or where the lines cross.
//
//lint:hotpath called per gap by envelopeMax
func tentMax(va, vb, sl, sr, w float64) float64 {
	best := max(min(va, vb-sr*w), min(va+sl*w, vb))
	// Parallel lines give t = ±Inf or NaN, which the range check rejects.
	if t := (vb - va - sr*w) / (sl - sr); t > 0 && t < w {
		best = max(best, min(va+sl*t, vb-sr*(w-t)))
	}
	return best
}

// polish tries a handful of deterministic random joint directions that
// respect the budget hyperplane and box; when one improves p it moves p
// along it in place and returns the gain.
func (rf *refiner) polish(p Profile, cur float64) float64 {
	in, opts, dir := rf.in, rf.opts, rf.dir
	m := in.M()
	dMax := in.MaxDeadline()
	budgetTight := in.Budget-p.Energy(in) <= opts.Tol
	for attempt := 0; attempt < 8*m; attempt++ {
		for r := range dir {
			dir[r] = rf.src.Uniform(-1, 1)
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
		move := func(q Profile, e float64) {
			for r := range dir {
				q[r] += e * dir[r] / in.Machines[r].Power
				if q[r] < 0 {
					q[r] = 0
				}
				if q[r] > dMax {
					q[r] = dMax
				}
			}
		}
		slope := 0.0
		for r, d := range dir {
			slope += rf.ascent(r, d/in.Machines[r].Power)
		}
		if e, gain := rf.maximizeAlong(p, cur, move, eMax, slope); gain > opts.Tol {
			move(p, e)
			return gain
		}
	}
	return 0
}
