package dscted

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (each drives the corresponding experiment runner at a reduced
// scale so `go test -bench=.` stays tractable; run cmd/experiments for
// paper-scale sweeps), plus ablation benchmarks for the design choices
// called out in DESIGN.md. Custom metrics (accuracy, optimality gap) are
// attached via b.ReportMetric where they are the point of the comparison.

import (
	"strconv"
	"testing"
	"time"

	"repro/internal/approx"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/mip"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/task"
)

// benchCfg is the reduced-scale configuration used by the per-figure
// benchmarks.
func benchCfg() experiments.Config {
	return experiments.Config{
		Seed:            1,
		Replicates:      2,
		Scale:           0.2,
		Workers:         2,
		SolverTimeLimit: 2 * time.Second,
	}
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run(id, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1GPUCatalog(b *testing.B)         { runExperiment(b, "fig1") }
func BenchmarkFig2AccuracyCurve(b *testing.B)      { runExperiment(b, "fig2") }
func BenchmarkFig3OptimalityGap(b *testing.B)      { runExperiment(b, "fig3") }
func BenchmarkFig4aRuntimeVsTasks(b *testing.B)    { runExperiment(b, "fig4a") }
func BenchmarkFig4bRuntimeVsMachines(b *testing.B) { runExperiment(b, "fig4b") }
func BenchmarkTable1FROptVsLP(b *testing.B)        { runExperiment(b, "table1") }

// Note: fig5 and gain share a memoised β sweep, so after the first
// iteration these two benchmarks measure table assembly over the cached
// series, not the solve; BenchmarkApproxEndToEnd covers the solve cost.
func BenchmarkFig5AccuracyVsBudget(b *testing.B) { runExperiment(b, "fig5") }
func BenchmarkGainEnergySaving(b *testing.B)     { runExperiment(b, "gain") }
func BenchmarkFig6aProfileUniform(b *testing.B)  { runExperiment(b, "fig6a") }
func BenchmarkFig6bProfileSkewed(b *testing.B)   { runExperiment(b, "fig6b") }
func BenchmarkExtRenewable(b *testing.B)         { runExperiment(b, "ext-renewable") }
func BenchmarkExtComm(b *testing.B)              { runExperiment(b, "ext-comm") }

// benchInstance generates a fixed mid-size instance for the ablations.
func benchInstance(b *testing.B, n, m int, mu float64) *task.Instance {
	b.Helper()
	cfg := task.DefaultConfig(n, 0.35, 0.5)
	cfg.ThetaMax = cfg.ThetaMin * mu
	in, err := task.GenerateUniformFleet(rng.New(99, "bench"), cfg, m)
	if err != nil {
		b.Fatal(err)
	}
	return in
}

// BenchmarkAblationSegtreeVsScan compares the paper's O(n²) slack scan
// against the default latest-interval kernel inside Algorithm 1. The name
// is DESIGN.md's abl-segtree ablation ID, kept from the segment tree the
// kernel replaced.
func BenchmarkAblationSegtreeVsScan(b *testing.B) {
	for _, n := range []int{100, 500, 2000} {
		in := benchInstance(b, n, 1, 10)
		caps := core.Caps(in, core.Profile{in.MaxDeadline()})
		b.Run("scan/n="+strconv.Itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.GreedyAllocate(in.Tasks, caps, core.GreedyOptions{UseScan: true})
			}
		})
		b.Run("latest-interval/n="+strconv.Itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.GreedyAllocate(in.Tasks, caps, core.GreedyOptions{UseScan: false})
			}
		})
	}
}

// BenchmarkAblationRefineVariants compares the profile-refinement variants:
// none (naive profile), exchanges without the polish pass, and the full
// refinement. The accuracy each attains and its V(p) probe count are
// reported alongside the time.
func BenchmarkAblationRefineVariants(b *testing.B) {
	in := benchSkewedInstance(b, 100)
	variants := []struct {
		name string
		opts core.FROptions
	}{
		{"naive", core.FROptions{SkipRefine: true}},
		{"paper-pairs", core.FROptions{PaperRefine: true}},
		{"exchange", core.FROptions{Refine: core.RefineOptions{DisablePolish: true}}},
		{"exchange+polish", core.FROptions{}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			var acc float64
			probes := 0
			for i := 0; i < b.N; i++ {
				sol, err := core.SolveFR(in, v.opts)
				if err != nil {
					b.Fatal(err)
				}
				acc, probes = sol.TotalAccuracy, sol.Probes
			}
			b.ReportMetric(acc/float64(in.N()), "avg-accuracy")
			b.ReportMetric(float64(probes), "probes/op")
		})
	}
}

// benchSkewedInstance builds the Fig 6b scenario where refinement matters.
func benchSkewedInstance(b *testing.B, n int) *task.Instance {
	b.Helper()
	cfg := task.DefaultConfig(n, 0.01, 0.3)
	cfg.Scenario = task.EarliestHighEfficient
	cfg.ThetaMin, cfg.ThetaMax = 0.1, 1.0
	cfg.EarlyFraction = 0.30
	cfg.EarlyThetaMin, cfg.EarlyThetaMax = 4.0, 4.9
	in, err := task.Generate(rng.New(42, "bench-skew"), cfg, machine.TwoMachineScenario())
	if err != nil {
		b.Fatal(err)
	}
	return in
}

// BenchmarkAblationParallelMIP times the exact branch-and-bound search
// with the rounding hook on a fixed DSCT-EA instance. Its name and its one
// sub-benchmark's name are those of the records taken while helper
// goroutines could solve queued nodes ahead of the search, so benchjson
// still pairs it with them.
func BenchmarkAblationParallelMIP(b *testing.B) {
	in := benchInstance(b, 8, 2, 2)
	mm := model.BuildMIP(in)
	b.Run("workers=1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := mip.Solve(mm.Prob, mip.Options{
				Deadline: time.Now().Add(30 * time.Second),
				Rounding: mm.RoundingHook(),
			})
			if err != nil {
				b.Fatal(err)
			}
			if res.Status != mip.Optimal {
				b.Fatalf("status %v", res.Status)
			}
		}
	})
}

// BenchmarkMIPColdVsWarm measures the warm-start speedup in branch-and-
// bound: every node relaxation warm-started from its parent's basis via
// the dual simplex (warm) against from-scratch two-phase solves at every
// node (cold, Options.DisableWarmStart). The warm-started node fraction
// and the node count are reported alongside the time; scripts/verify.sh
// -bench records the pairing in BENCH_PR2.json.
func BenchmarkMIPColdVsWarm(b *testing.B) {
	for _, n := range []int{8, 12, 16} {
		in := benchInstance(b, n, 2, 2)
		mm := model.BuildMIP(in)
		for _, mode := range []struct {
			name    string
			disable bool
		}{
			{"cold", true},
			{"warm", false},
		} {
			b.Run(mode.name+"/n="+strconv.Itoa(n), func(b *testing.B) {
				var last *mip.Result
				for i := 0; i < b.N; i++ {
					res, err := mip.Solve(mm.Prob, mip.Options{DisableWarmStart: mode.disable})
					if err != nil {
						b.Fatal(err)
					}
					if res.Status != mip.Optimal {
						b.Fatalf("status %v", res.Status)
					}
					last = res
				}
				if total := last.WarmSolves + last.ColdSolves; total > 0 {
					b.ReportMetric(float64(last.WarmSolves)/float64(total), "warm-fraction")
				}
				b.ReportMetric(float64(last.Nodes), "nodes")
			})
		}
	}
}

// BenchmarkMIPBranchAndCut runs the branch-and-bound search (reliability
// branching primed by strong-branching probes, best-bound with plunging;
// the name predates the deletion of the search's cutting planes) on the
// hardest exact-solve regime in the paper's evaluation —
// fig4 tight-deadline instances (rho = 0.1, theta_max = 1.0) at n = 24
// tasks on a 4-machine fleet — and reports its node and probe counts,
// which cmd/benchjson -diff gates across PRs.
func BenchmarkMIPBranchAndCut(b *testing.B) {
	for _, seed := range []int64{3, 9} {
		in, err := task.GenerateUniformFleet(rng.New(seed, "dsct-nodes"), task.PaperFig4(24), 4)
		if err != nil {
			b.Fatal(err)
		}
		mm := model.BuildMIP(in)
		b.Run("bnc/fig4/n=24/s="+strconv.FormatInt(seed, 10), func(b *testing.B) {
			var last *mip.Result
			for i := 0; i < b.N; i++ {
				res, err := mip.Solve(mm.Prob, mip.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if res.Status != mip.Optimal {
					b.Fatalf("status %v", res.Status)
				}
				last = res
			}
			b.ReportMetric(float64(last.Nodes), "nodes")
			b.ReportMetric(float64(last.StrongBranches), "strong-branches")
		})
	}
}

// BenchmarkAblationApproxVariants compares the flop-preserving rounding
// (default, the intended Algorithm 5) against the literal time-preserving
// rule of the pseudocode.
func BenchmarkAblationApproxVariants(b *testing.B) {
	in := benchInstance(b, 100, 4, 10)
	for _, v := range []struct {
		name string
		opts approx.Options
	}{
		{"flop-preserving", approx.Options{}},
		{"time-preserving", approx.Options{TimePreserving: true}},
	} {
		b.Run(v.name, func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				sol, err := approx.Solve(in, v.opts)
				if err != nil {
					b.Fatal(err)
				}
				acc = sol.TotalAccuracy
			}
			b.ReportMetric(acc/float64(in.N()), "avg-accuracy")
		})
	}
}

// BenchmarkAblationParallelExperiments measures the worker-pool speedup of
// the experiment harness on the fig3 sweep.
func BenchmarkAblationParallelExperiments(b *testing.B) {
	for _, workers := range []int{1, 4} {
		cfg := benchCfg()
		cfg.Workers = workers
		cfg.Replicates = 4
		b.Run("workers="+strconv.Itoa(workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Run("fig3", cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSolveFRScaling tracks the combinatorial solver alone across
// instance sizes (the left column of Table 1), with its V(p) probe count.
func BenchmarkSolveFRScaling(b *testing.B) {
	for _, n := range []int{100, 200, 500} {
		in := benchInstance(b, n, 5, 5)
		b.Run("n="+strconv.Itoa(n), func(b *testing.B) {
			probes := 0
			for i := 0; i < b.N; i++ {
				sol, err := core.SolveFR(in, core.FROptions{})
				if err != nil {
					b.Fatal(err)
				}
				probes = sol.Probes
			}
			b.ReportMetric(float64(probes), "probes/op")
		})
	}
}

// BenchmarkApproxEndToEnd is the headline end-to-end latency of
// DSCT-EA-APPROX at the paper's Fig 3 size.
func BenchmarkApproxEndToEnd(b *testing.B) {
	in := benchInstance(b, 100, 5, 10)
	for i := 0; i < b.N; i++ {
		if _, err := approx.Solve(in, approx.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
