package lp

// Pricing rules for the entering-column choice. Two rules are selectable
// through Options.Pricing:
//
//   - Dantzig: the classic full scan for the largest sign-aware reduced
//     cost. O(priced columns) per pivot; the default below
//     pricingAutoCols.
//   - Partial (partial pricing with candidate lists): devex scores
//     d_j²/w_j over a bounded candidate list, refilled by pricing rotating
//     sections of the column space. The reference weights w_j
//     (Forrest–Goldfarb) approximate the steepest-edge column norms
//     ‖B⁻¹A_j‖². Per-pivot pricing work is proportional to the candidate
//     list plus one section — not to the full column count — which is what
//     makes 10⁴-column problems pivot in O(candidates).
//
// The devex recurrence, for a pivot entering column q at row r with
// pivot element α_q (the entering direction's r-th component):
//
//	w_j ← max(w_j, (α_j/α_q)²·w_q)   for candidate j     (α_j: pivot row)
//	w_l ← max(w_q/α_q², 1)           for the leaving column l
//
// Weights are pure basis geometry — independent of the cost vector — so
// they survive the phase-1 → phase-2 transition and travel with a Basis
// snapshot into warm-started children. The reference framework restarts
// (all weights to 1) whenever the basis is refactorised, when pricing
// falls back to Bland's rule, and when a weight overflows devexWeightCap;
// a restarted framework is merely a fresh approximation, never a
// correctness event.
//
// Correctness is rule-independent: pricing only orders pivots. Every rule
// demands a strictly improving sign-aware reduced cost (> tol) before
// entering, Bland's rule still takes over after a degenerate run, and
// partial pricing certifies optimality only by a full wrap of the column
// space — under duals that cannot have changed since no pivot happened —
// finding no attractive column.

const (
	// pricingAutoCols is the priced-column-space size (structural +
	// logical columns) at which PricingAuto switches from Dantzig's full
	// scan to partial pricing. Below it the full scan is cheap and the
	// historical pivot order is preserved bit-for-bit.
	pricingAutoCols = 4096
	// devexWeightCap bounds the devex weights; any update past it
	// restarts the reference framework at unit weights.
	devexWeightCap = 1e10
	// partialListCap bounds the partial-pricing candidate list.
	partialListCap = 128
	// partialSection is the number of columns one refill scan prices
	// before checking whether a candidate has surfaced.
	partialSection = 512
	// partialMinFill is the candidate count a refill keeps scanning
	// sections for before it commits to an entering column. A single
	// section is a narrow window of the column space; entering from it
	// when it holds only a handful of attractive columns makes myopic
	// pivots and inflates the pivot count, so a refill widens the pool to
	// this many candidates (or a full wrap) first.
	partialMinFill = 64
)

// resolvePricing maps PricingAuto to a concrete rule for a problem whose
// priced column space (structural + logical columns) has rw columns.
func resolvePricing(mode PricingMode, rw int) PricingMode {
	if mode != PricingAuto {
		return mode
	}
	if rw >= pricingAutoCols {
		return PricingPartial
	}
	return PricingDantzig
}

// pricer is the pricing-rule state the simplex core embeds: for partial
// pricing, the devex reference weights and the candidate list with its
// rotating refill cursor.
type pricer struct {
	rw int // priced column space is [0, rw)

	devex []float64 // rw reference weights (nil: rule keeps none)
	wmax  float64   // largest weight since the last framework restart

	cand   []int // partial-pricing candidate columns
	cursor int   // next column a refill section scan starts from

	// devexBuf/candBuf are the persistent backing arrays devex/cand are
	// resliced from: init reuses their capacity across solves (a reused
	// pricer reaches zero steady-state allocations), while devex/cand keep
	// their nil-means-rule-keeps-none semantics.
	devexBuf []float64
	candBuf  []int
}

// init resolves nothing (the caller passes a resolved mode) and sizes the
// rule's state: for partial pricing, unit weights and an empty candidate
// list at full capacity. Re-initialising a pricer reuses its backing
// arrays.
func (pp *pricer) init(mode PricingMode, rw int) {
	pp.rw = rw
	pp.cursor = 0
	pp.devex = nil
	pp.cand = nil
	if mode == PricingPartial {
		if cap(pp.devexBuf) < rw {
			pp.devexBuf = make([]float64, rw)
		}
		pp.devex = pp.devexBuf[:rw]
		pp.resetWeights()
		if cap(pp.candBuf) < partialListCap {
			pp.candBuf = make([]int, 0, partialListCap)
		}
		pp.cand = pp.candBuf[:0]
	}
}

// resetWeights restarts the devex reference framework at the current
// basis: every weight back to 1. Called on refactorisation (the rebuilt
// representation is the natural new reference), on the Bland fallback,
// and on weight overflow. No-op when the rule keeps no weights.
//
//lint:hotpath runs inside the pivot loop via refactorize; pinned to zero allocations
func (pp *pricer) resetWeights() {
	for j := range pp.devex {
		pp.devex[j] = 1
	}
	pp.wmax = 1
}

// bumpWeight applies the recurrence to a single column given its pivot-
// row coefficient α_j and the precomputed reference factor w_q/α_q²;
// partial pricing restricts the update to its candidate list.
//
//lint:hotpath per-candidate devex weight update; pinned to zero allocations
func (pp *pricer) bumpWeight(j int, aj, ref float64) {
	if wj := aj * aj * ref; wj > pp.devex[j] {
		pp.devex[j] = wj
		if wj > pp.wmax {
			pp.wmax = wj
		}
	}
}

// sealUpdate finishes a weight update: the entering column's weight
// re-seeds at 1 (it is basic now; the value is only read again after it
// leaves), the leaving column inherits max(w_q/α_q², 1), and an
// overflowed framework restarts.
//
//lint:hotpath per-pivot weight-update epilogue; pinned to zero allocations
func (pp *pricer) sealUpdate(ref float64, pc, leave int) {
	pp.devex[pc] = 1
	if leave >= 0 && leave < pp.rw {
		wl := ref
		if wl < 1 {
			wl = 1
		}
		pp.devex[leave] = wl
		if wl > pp.wmax {
			pp.wmax = wl
		}
	}
	if pp.wmax > devexWeightCap {
		pp.resetWeights()
	}
}

// snapshotWeights copies the devex weights for a Basis snapshot (nil when
// the rule keeps none): [0, n) structural, [n, rw) logicals by row.
func (pp *pricer) snapshotWeights() []float64 {
	if pp.devex == nil {
		return nil
	}
	return append([]float64(nil), pp.devex...)
}

// inheritWeights adopts a parent snapshot's weights into a child solver
// over the same n structural variables but a possibly larger row count:
// the structural segment maps index-for-index, the logical segment
// row-for-row over the shared row prefix, and appended rows' logicals
// keep their unit weight. No-op when either side keeps no weights; a
// later refactorisation (the warm-start fallback path included) resets
// the inherited weights like any others.
func (pp *pricer) inheritWeights(w []float64, n int) {
	if pp.devex == nil || w == nil || len(w) < n {
		return
	}
	copy(pp.devex[:n], w[:n])
	shared := len(w) - n // parent logical count
	if shared > pp.rw-n {
		shared = pp.rw - n
	}
	copy(pp.devex[n:n+shared], w[n:n+shared])
	pp.wmax = 1
	for _, wj := range pp.devex {
		if wj > pp.wmax {
			pp.wmax = wj
		}
	}
	if pp.wmax > devexWeightCap {
		pp.resetWeights()
	}
}
