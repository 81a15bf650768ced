package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/lp"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/task"
)

func init() {
	register(Spec{
		ID:    "table1",
		Title: "DSCT-EA-FR-Opt vs LP solver runtimes",
		Description: "Reproduces Table 1: wall-clock time of the combinatorial DSCT-EA-FR-OPT " +
			"against the simplex LP solver applied to the DSCT-EA-FR formulation, m=5, " +
			"n = 100..500 (the LP stands in for Mosek; absolute times differ, the ordering is the result).",
		Run: runTable1,
	})
}

func runTable1(cfg Config) (*Table, error) {
	reps := cfg.replicates(3)
	limit := cfg.SolverTimeLimit
	const m = 5
	ns := []int{100, 200, 300, 400, 500}
	t := &Table{
		ID:      "table1",
		Title:   fmt.Sprintf("FR-OPT vs LP runtimes (s) — m=%d, %d reps, %s LP limit", m, reps, limit),
		Columns: []string{"n", "fropt_mean_s", "lp_mean_s", "lp_timeouts", "value_rel_diff"},
	}
	lpDead := false
	for _, nPaper := range ns {
		n := cfg.scaled(nPaper, 5)
		froptTimes := make([]float64, reps)
		lpTimes := make([]float64, reps)
		timeouts := make([]int, reps)
		diffs := make([]float64, reps)
		runLP := !lpDead
		if err := parMapErr(cfg.Workers, reps, func(i int) error {
			label := fmt.Sprintf("table1/n=%d", nPaper)
			gcfg := task.DefaultConfig(n, 0.35, 0.5)
			gcfg.ThetaMax = 0.5 // moderately heterogeneous, as in fig3
			in, err := task.GenerateUniformFleet(rng.NewReplicate(cfg.Seed, label, i), gcfg, m)
			if err != nil {
				return err
			}
			start := time.Now()
			fr, err := core.SolveFR(in, core.FROptions{})
			if err != nil {
				return err
			}
			froptTimes[i] = time.Since(start).Seconds()

			if !runLP {
				return nil
			}
			fm := model.BuildFR(in)
			start = time.Now()
			sol, err := lp.Solve(fm.Prob, lp.Options{Deadline: time.Now().Add(limit)})
			if err != nil {
				return err
			}
			lpTimes[i] = time.Since(start).Seconds()
			if sol.Status == lp.Optimal {
				if sol.Objective > 0 {
					diffs[i] = (sol.Objective - fr.TotalAccuracy) / sol.Objective
				}
			} else {
				timeouts[i] = 1
			}
			return nil
		}); err != nil {
			return nil, err
		}
		nTimeouts := 0
		for _, v := range timeouts {
			nTimeouts += v
		}
		lpCell := "skipped"
		if runLP {
			lpCell = f3(stats.Mean(lpTimes))
			if nTimeouts == reps {
				lpDead = true
			}
		}
		t.AddRow(fmt.Sprintf("%d", n), f4(stats.Mean(froptTimes)), lpCell,
			fmt.Sprintf("%d", nTimeouts), g4(stats.Mean(diffs)))
	}
	t.Note("value_rel_diff is (LP − FR-OPT)/LP over replicates where the LP finished: ~0 certifies both solve the same relaxation")
	return t, nil
}
