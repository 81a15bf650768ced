// Package dscted is the public façade of the DSCT-EA reproduction: energy-
// aware scheduling of compressible machine-learning inference tasks on
// heterogeneous machines (da Silva Barros et al., "Scheduling Machine
// Learning Compressible Inference Tasks with Limited Energy Budget",
// ICPP 2024).
//
// The package re-exports the problem model (tasks with concave piecewise-
// linear accuracy functions, machines with speed and power, instances with
// deadlines and an energy budget), the paper's algorithms —
//
//   - SolveFR: the exact algorithm for the fractional relaxation
//     DSCT-EA-FR (Algorithms 1–4), whose value is the DSCT-EA-UB upper
//     bound;
//   - SolveApprox: the approximation algorithm DSCT-EA-APPROX
//     (Algorithm 5) with the guarantee OPT − G <= SOL <= OPT;
//   - SolveExact: the exact mixed-integer solve of DSCT-EA by
//     branch-and-bound over an LP simplex (the paper's MOSEK role);
//
// — the EDF baselines it compares against, the synthetic workload
// generators of its evaluation, and a discrete-event cluster simulator for
// replaying schedules.
//
// A minimal session:
//
//	src := dscted.NewRand(42, "demo")
//	inst, _ := dscted.GenerateUniformFleet(src, dscted.DefaultConfig(100, 0.35, 0.5), 5)
//	sol, _ := dscted.SolveApprox(inst, dscted.ApproxOptions{})
//	fmt.Println(sol.Schedule.AverageAccuracy(inst), sol.FR.TotalAccuracy)
//
// See examples/ for complete programs and internal/experiments for the
// harness that regenerates every table and figure of the paper.
package dscted

import (
	"time"

	"repro/internal/accuracy"
	"repro/internal/approx"
	"repro/internal/baselines"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/mip"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/schedule"
	"repro/internal/task"
)

// Problem model re-exports.
type (
	// Task is one compressible inference request.
	Task = task.Task
	// Instance is a complete problem: tasks, machines and energy budget.
	Instance = task.Instance
	// GenConfig parameterises synthetic workload generation.
	GenConfig = task.GenConfig
	// Scenario selects how task efficiencies relate to deadlines.
	Scenario = task.Scenario
	// Machine is one processing unit (speed, power).
	Machine = machine.Machine
	// Fleet is an ordered machine collection.
	Fleet = machine.Fleet
	// GPU is a catalog entry with published throughput/TDP figures.
	GPU = machine.GPU
	// Schedule is the processing-time matrix t_jr of a solution.
	Schedule = schedule.Schedule
	// Metrics bundles accuracy/energy/profile of a schedule.
	Metrics = schedule.Metrics
	// ValidateOptions tunes schedule feasibility checking.
	ValidateOptions = schedule.ValidateOptions
	// AccuracyPWL is a concave piecewise-linear accuracy function.
	AccuracyPWL = accuracy.PWL
	// AccuracyModel is the exponential OFA-style accuracy curve.
	AccuracyModel = accuracy.Exponential
	// Rand is a deterministic random stream.
	Rand = rng.Source
)

// Workload scenarios.
const (
	// Uniform draws every task efficiency from the same range.
	Uniform = task.Uniform
	// EarliestHighEfficient gives the earliest tasks high efficiencies
	// (the paper's Fig 6b scenario).
	EarliestHighEfficient = task.EarliestHighEfficient
)

// Solver re-exports.
type (
	// FROptions tunes the fractional solver.
	FROptions = core.FROptions
	// FRSolution is the output of SolveFR (DSCT-EA-FR-OPT).
	FRSolution = core.FRSolution
	// Profile is an energy profile (busy-time cap per machine).
	Profile = core.Profile
	// ApproxOptions tunes the approximation algorithm.
	ApproxOptions = approx.Options
	// ApproxSolution is the output of SolveApprox (DSCT-EA-APPROX).
	ApproxSolution = approx.Solution
	// SimOptions tunes the cluster simulator.
	SimOptions = cluster.Options
	// SimResult is a simulation outcome (trace, misses, energy).
	SimResult = cluster.Result
	// Slowdown injects a machine degradation window into a simulation.
	Slowdown = cluster.Slowdown
)

// NewRand returns a deterministic random stream for the seed and label.
func NewRand(seed int64, label string) *Rand { return rng.New(seed, label) }

// NewMachine builds a machine from speed (GFLOP/s) and energy efficiency
// (GFLOPS/W), the paper's parameterisation.
func NewMachine(name string, speedGFLOPS, efficiencyGFLOPSPerW float64) Machine {
	return machine.New(name, speedGFLOPS, efficiencyGFLOPSPerW)
}

// GPUCatalog returns the embedded NVIDIA server-GPU catalog (Fig 1 data).
func GPUCatalog() []GPU { return machine.Catalog }

// DefaultConfig returns the paper's base workload configuration for n
// tasks with deadline tolerance rho and energy budget ratio beta.
func DefaultConfig(n int, rho, beta float64) GenConfig {
	return task.DefaultConfig(n, rho, beta)
}

// Generate draws a problem instance over the given fleet.
func Generate(src *Rand, cfg GenConfig, fleet Fleet) (*Instance, error) {
	return task.Generate(src, cfg, fleet)
}

// GenerateUniformFleet draws both a uniform random fleet of m machines
// (speeds 1–20 TFLOPS, efficiencies 5–60 GFLOPS/W) and an instance on it.
func GenerateUniformFleet(src *Rand, cfg GenConfig, m int) (*Instance, error) {
	return task.GenerateUniformFleet(src, cfg, m)
}

// NewAccuracy builds the exponential accuracy model with the paper's
// default accuracy range and task efficiency theta, and fits the paper's
// 5-segment piecewise-linear function to it.
func NewAccuracy(theta float64) (*AccuracyPWL, error) {
	return accuracy.FitChord(accuracy.NewExponential(theta), accuracy.DefaultSegments)
}

// NewPWLAccuracy builds a concave piecewise-linear accuracy function from
// breakpoints (GFLOPs, starting at 0) and the accuracies at them.
func NewPWLAccuracy(breakpoints, values []float64) (*AccuracyPWL, error) {
	return accuracy.NewPWL(breakpoints, values)
}

// SolveFR runs DSCT-EA-FR-OPT (Algorithm 4): the exact combinatorial
// solver for the fractional relaxation. Its TotalAccuracy is the paper's
// DSCT-EA-UB upper bound.
func SolveFR(in *Instance, opts FROptions) (*FRSolution, error) {
	return core.SolveFR(in, opts)
}

// SolveApprox runs DSCT-EA-APPROX (Algorithm 5): it solves the fractional
// relaxation and rounds it into an integral schedule with the paper's
// performance guarantee.
func SolveApprox(in *Instance, opts ApproxOptions) (*ApproxSolution, error) {
	return approx.Solve(in, opts)
}

// Guarantee returns the paper's absolute approximation bound
// G = m·(a_max − a_min)·(1 + ln(θ_max/θ_min)) for the instance.
func Guarantee(in *Instance) float64 { return approx.Guarantee(in) }

// ExactResult is the outcome of an exact DSCT-EA solve.
type ExactResult struct {
	// Schedule is the incumbent's integral schedule (nil if none was found
	// within the limits): the exact optimum of the incumbent's
	// task-to-machine assignment.
	Schedule *Schedule
	// TotalAccuracy is the schedule's own total accuracy.
	TotalAccuracy float64
	// Bound is the proven upper bound on the optimum.
	Bound float64
	// Optimal reports whether the incumbent was proven optimal.
	Optimal bool
	// Nodes is the number of branch-and-bound nodes processed.
	Nodes int
	// Elapsed is the solver wall-clock time.
	Elapsed time.Duration
}

// SolveExact solves the DSCT-EA mixed-integer program by branch-and-bound
// (the paper's "DSCT-EA-Opt" role, played by cvx-MOSEK there). timeLimit
// bounds the search (zero means none).
func SolveExact(in *Instance, timeLimit time.Duration) (*ExactResult, error) {
	mm := model.BuildMIP(in)
	opts := mip.Options{Rounding: mm.RoundingHook()}
	if timeLimit > 0 {
		opts.Deadline = time.Now().Add(timeLimit)
	}
	res, err := mip.Solve(mm.Prob, opts)
	if err != nil {
		return nil, err
	}
	out := &ExactResult{
		Bound:   res.Bound,
		Optimal: res.Status == mip.Optimal,
		Nodes:   res.Nodes,
		Elapsed: res.Elapsed,
	}
	if res.Status == mip.Optimal || res.Status == mip.Feasible {
		out.Schedule = mm.Schedule(res.X)
		out.TotalAccuracy = out.Schedule.TotalAccuracy(in)
	}
	return out, nil
}

// EDFNoCompression runs the no-compression baseline: EDF order, least-
// loaded machine, full processing only, stop at the energy budget.
func EDFNoCompression(in *Instance) *Schedule { return baselines.EDFNoCompression(in) }

// EDF3CompressionLevels runs the discrete-compression baseline with the
// given accuracy levels (nil selects the paper's 27%/55%/82%).
func EDF3CompressionLevels(in *Instance, levels []float64) (*Schedule, error) {
	return baselines.EDF3CompressionLevels(in, levels)
}

// Simulate replays a schedule on the discrete-event cluster simulator.
func Simulate(in *Instance, s *Schedule, opts SimOptions) (*SimResult, error) {
	return cluster.Run(in, s, opts)
}
