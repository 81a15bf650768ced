package core

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/numeric"
	"repro/internal/task"
)

// Profile is an energy profile: p[r] is the maximum busy time (seconds) of
// machine r. A profile is admissible for budget B when Σ_r p_r·P_r <= B
// (paper §3.2, "The Energy Profiles").
type Profile []float64

// Clone returns a copy of the profile.
func (p Profile) Clone() Profile { return append(Profile(nil), p...) }

// Energy returns Σ_r p_r·P_r, the energy consumed if every machine runs for
// its full profile.
func (p Profile) Energy(in *task.Instance) float64 {
	var e numeric.KahanSum
	for r, mc := range in.Machines {
		e.Add(p[r] * mc.Power)
	}
	return e.Value()
}

// Validate checks non-negativity, admissibility for the instance budget and
// the d_max cap.
func (p Profile) Validate(in *task.Instance, tol float64) error {
	if len(p) != in.M() {
		return fmt.Errorf("core: profile has %d entries for %d machines", len(p), in.M())
	}
	dMax := in.MaxDeadline()
	for r, v := range p {
		if !numeric.IsFinite(v) || v < -tol {
			return fmt.Errorf("core: profile[%d] = %g invalid", r, v)
		}
		if v > dMax*(1+tol)+tol {
			return fmt.Errorf("core: profile[%d] = %g exceeds d_max %g", r, v, dMax)
		}
	}
	if e := p.Energy(in); !numeric.LessEq(e, in.Budget, tol) {
		return fmt.Errorf("core: profile energy %g exceeds budget %g", e, in.Budget)
	}
	return nil
}

// Caps returns the aggregate prefix capacities C(d_j, p) = Σ_r s_r·min(d_j, p_r)
// for every task j, in GFLOPs. The result is non-decreasing because
// deadlines are sorted.
func Caps(in *task.Instance, p Profile) []float64 {
	caps := make([]float64, in.N())
	capsInto(caps, in, p)
	return caps
}

// capsInto writes Caps(in, p) into caps.
//
//lint:hotpath runs once per V(p) evaluation in RefineProfile's line searches; pinned to zero allocations
func capsInto(caps []float64, in *task.Instance, p Profile) {
	for j, tk := range in.Tasks {
		var c numeric.KahanSum
		for r, mc := range in.Machines {
			c.Add(mc.Speed * min(tk.Deadline, p[r]))
		}
		caps[j] = c.Value()
	}
}

// NaiveProfile is the first half of ComputeNaiveSolution (Algorithm 2):
// machines are taken in non-increasing energy-efficiency order and each is
// given the longest profile the remaining budget allows, capped at d_max.
func NaiveProfile(in *task.Instance) Profile {
	p := make(Profile, in.M())
	dMax := in.MaxDeadline()
	remaining := in.Budget
	for _, r := range in.Machines.ByEfficiencyDesc() {
		if remaining <= 0 {
			break
		}
		power := in.Machines[r].Power
		t := math.Min(remaining/power, dMax)
		p[r] = t
		remaining -= t * power
	}
	return p
}

// Value computes V(p): the optimal total accuracy achievable with profile p
// (inner greedy, Algorithm 1 over the aggregate capacities), together with
// the optimal work vector, which the caller owns.
func Value(in *task.Instance, p Profile, opts GreedyOptions) (float64, []float64) {
	return NewAllocator(in.Tasks, opts).value(in, p)
}

// value is Value against a prepared allocator.
func (a *Allocator) value(in *task.Instance, p Profile) (float64, []float64) {
	total := a.total(in, p)
	return total, slices.Clone(a.work)
}

// total returns V(p) and leaves the optimal work vector in a.work.
//
//lint:hotpath one V(p) evaluation per point probed by RefineProfile's line searches; pinned to zero allocations
func (a *Allocator) total(in *task.Instance, p Profile) float64 {
	a.probes++
	capsInto(a.caps, in, p)
	a.allocate(a.caps)
	return TotalAccuracy(in.Tasks, a.work)
}
