package core

import (
	"fmt"

	"repro/internal/schedule"
	"repro/internal/task"
)

// FROptions tunes SolveFR (Algorithm 4, DSCT-EA-FR-OPT).
type FROptions struct {
	// SkipRefine stops after ComputeNaiveSolution (Algorithm 2), i.e. the
	// naive energy profile is used as-is (ablation; the paper shows the
	// naive profile can be suboptimal, Fig 6b).
	SkipRefine bool
	// PaperRefine replaces the fixed-point exchange refinement with the
	// single-sweep pair-list transcription of Algorithm 3
	// (RefinePaperPairs); weaker but literally the paper's pseudocode.
	PaperRefine bool
	Greedy      GreedyOptions
	Refine      RefineOptions
}

// FRSolution is the output of DSCT-EA-FR-OPT.
type FRSolution struct {
	// Schedule holds the fractional processing times t_jr.
	Schedule *schedule.Schedule
	// Profile is the (refined) energy profile p; it upper-bounds each
	// machine's load and is the per-machine work cap the approximation
	// algorithm (Algorithm 5) enforces.
	Profile Profile
	// Work is the optimal work vector f_j in GFLOPs.
	Work []float64
	// TotalAccuracy is Σ_j a_j(f_j) — the paper's DSCT-EA-UB upper bound.
	TotalAccuracy float64
	// Sweeps is the number of refinement sweeps performed.
	Sweeps int
	// Probes counts the solve's V(p) evaluations: the points refinement's
	// line searches probed plus the evaluations of the profile itself.
	Probes int
}

// SolveFR runs DSCT-EA-FR-OPT (Algorithm 4): ComputeNaiveSolution
// (Algorithm 2: naive profile + Algorithm 1 on the aggregate capacities)
// followed by RefineProfile (Algorithm 3), then reconstructs the
// per-machine times.
func SolveFR(in *task.Instance, opts FROptions) (*FRSolution, error) {
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	opts.Refine.Greedy = opts.Greedy

	p := NaiveProfile(in)
	sweeps := 0
	if opts.PaperRefine && !opts.SkipRefine {
		return solveFRPaper(in, p, opts)
	}
	alloc := NewAllocator(in.Tasks, opts.Greedy)
	if !opts.SkipRefine {
		p, sweeps = refineProfile(alloc, in, p, opts.Refine)
	}
	total, f := alloc.value(in, p)
	sched, err := Split(in, p, f)
	if err != nil {
		return nil, err
	}
	if err := sched.Validate(in, schedule.ValidateOptions{}); err != nil {
		return nil, fmt.Errorf("core: internal error, fractional schedule invalid: %w", err)
	}
	return &FRSolution{
		Schedule:      sched,
		Profile:       p,
		Work:          f,
		TotalAccuracy: total,
		Sweeps:        sweeps,
		Probes:        alloc.probes,
	}, nil
}

// solveFRPaper runs ComputeNaiveSolution followed by the paper-literal
// Algorithm 3 pair sweep. The realised machine loads act as the profile.
func solveFRPaper(in *task.Instance, p Profile, opts FROptions) (*FRSolution, error) {
	alloc := NewAllocator(in.Tasks, opts.Greedy)
	_, f := alloc.value(in, p)
	sched, err := Split(in, p, f)
	if err != nil {
		return nil, err
	}
	sched = RefinePaperPairs(in, sched)
	if err := sched.Validate(in, schedule.ValidateOptions{}); err != nil {
		return nil, fmt.Errorf("core: internal error, paper-refined schedule invalid: %w", err)
	}
	work := make([]float64, in.N())
	for j := range work {
		work[j] = sched.Work(in, j)
	}
	return &FRSolution{
		Schedule:      sched,
		Profile:       Profile(sched.Profile()),
		Work:          work,
		TotalAccuracy: sched.TotalAccuracy(in),
		Sweeps:        1,
		Probes:        alloc.probes,
	}, nil
}
