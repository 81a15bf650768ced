// Command dsctea solves a DSCT-EA instance (JSON, see cmd/gen) with any of
// the module's schedulers and reports accuracy, energy and deadline
// compliance; optionally it replays the schedule on the discrete-event
// cluster simulator.
//
// Usage:
//
//	gen -n 50 -m 3 | dsctea -method approx -simulate
//	dsctea -instance inst.json -method exact -timeout 60s
//	dsctea -instance inst.json -method all
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	dscted "repro"
	"repro/internal/task"
)

func main() {
	var (
		instPath = flag.String("instance", "", "instance JSON file (default: stdin)")
		method   = flag.String("method", "approx", "scheduler: approx | fr | exact | edf | edf3 | all")
		timeout  = flag.Duration("timeout", 60*time.Second, "time limit for -method exact")
		simulate = flag.Bool("simulate", false, "replay the schedule on the cluster simulator")
		gantt    = flag.Bool("gantt", false, "render the schedule as a text Gantt chart")
		traceOut = flag.String("trace", "", "write a Chrome trace-event JSON of the simulated execution to this file (implies -simulate)")
		csvOut   = flag.String("csv", "", "write the per-assignment schedule as CSV to this file")
	)
	flag.Parse()

	var r io.Reader = os.Stdin
	if *instPath != "" {
		f, err := os.Open(*instPath)
		if err != nil {
			fatalf("opening instance: %v", err)
		}
		defer func() { _ = f.Close() }() // read-only: close error carries no data loss
		r = f
	}
	in, err := task.ReadJSON(r)
	if err != nil {
		fatalf("reading instance: %v", err)
	}
	fmt.Printf("instance: n=%d m=%d d_max=%.4gs budget=%.4gJ (ρ=%.3g β=%.3g μ=%.3g)\n",
		in.N(), in.M(), in.MaxDeadline(), in.Budget,
		in.DeadlineTolerance(), in.BudgetRatio(), in.HeterogeneityRatio())

	methods := []string{*method}
	if *method == "all" {
		methods = []string{"approx", "fr", "edf", "edf3"}
	}
	for _, meth := range methods {
		s, note, err := solve(in, meth, *timeout)
		if err != nil {
			fatalf("%s: %v", meth, err)
		}
		report(in, meth, s, note, *simulate || *traceOut != "")
		if *gantt {
			fmt.Println(s.Gantt(in, 72))
		}
		if *csvOut != "" {
			f, err := os.Create(*csvOut)
			if err != nil {
				fatalf("creating %s: %v", *csvOut, err)
			}
			if err := s.WriteCSV(f, in); err != nil {
				fatalf("writing csv: %v", err)
			}
			if err := f.Close(); err != nil {
				fatalf("closing %s: %v", *csvOut, err)
			}
			fmt.Printf("        schedule written to %s\n", *csvOut)
		}
		if *traceOut != "" {
			res, err := dscted.Simulate(in, s, dscted.SimOptions{})
			if err != nil {
				fatalf("simulate for trace: %v", err)
			}
			f, err := os.Create(*traceOut)
			if err != nil {
				fatalf("creating %s: %v", *traceOut, err)
			}
			if err := res.WriteChromeTrace(f, in); err != nil {
				fatalf("writing trace: %v", err)
			}
			if err := f.Close(); err != nil {
				fatalf("closing %s: %v", *traceOut, err)
			}
			fmt.Printf("        trace written to %s (load in chrome://tracing or Perfetto)\n", *traceOut)
		}
	}
}

func solve(in *dscted.Instance, method string, timeout time.Duration) (*dscted.Schedule, string, error) {
	switch method {
	case "approx":
		sol, err := dscted.SolveApprox(in, dscted.ApproxOptions{})
		if err != nil {
			return nil, "", err
		}
		return sol.Schedule, fmt.Sprintf("UB=%.6g G=%.4g", sol.FR.TotalAccuracy, sol.Guarantee), nil
	case "fr":
		sol, err := dscted.SolveFR(in, dscted.FROptions{})
		if err != nil {
			return nil, "", err
		}
		return sol.Schedule, fmt.Sprintf("fractional optimum (profile %v)", sol.Profile), nil
	case "exact":
		res, err := dscted.SolveExact(in, timeout)
		if err != nil {
			return nil, "", err
		}
		if res.Schedule == nil {
			return nil, "", fmt.Errorf("no incumbent within the time limit (%d nodes)", res.Nodes)
		}
		status := "optimal"
		if !res.Optimal {
			status = fmt.Sprintf("feasible, bound %.6g", res.Bound)
		}
		return res.Schedule, fmt.Sprintf("%s after %d nodes in %s", status, res.Nodes, res.Elapsed.Round(time.Millisecond)), nil
	case "edf":
		return dscted.EDFNoCompression(in), "EDF, no compression", nil
	case "edf3":
		s, err := dscted.EDF3CompressionLevels(in, nil)
		return s, "EDF, 3 compression levels", err
	default:
		return nil, "", fmt.Errorf("unknown method %q", method)
	}
}

func report(in *dscted.Instance, method string, s *dscted.Schedule, note string, simulate bool) {
	m := s.MetricsFor(in)
	fmt.Printf("%-7s avg accuracy %.4f  total %.4f  energy %.4g J (%.1f%% of budget)  %s\n",
		method+":", m.AverageAccuracy, m.TotalAccuracy, m.Energy,
		pct(m.Energy, in.Budget), note)
	if err := s.Validate(in, dscted.ValidateOptions{}); err != nil {
		fmt.Printf("        WARNING: schedule failed validation: %v\n", err)
	}
	if simulate {
		res, err := dscted.Simulate(in, s, dscted.SimOptions{})
		if err != nil {
			fatalf("simulate: %v", err)
		}
		fmt.Printf("        simulated: %d events, %d deadline misses, energy %.4g J, accuracy %.4f\n",
			len(res.Trace), len(res.Missed), res.Energy, res.TotalAccuracy/float64(in.N()))
	}
}

func pct(x, total float64) float64 {
	if total <= 0 {
		return 0
	}
	return 100 * x / total
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "dsctea: "+format+"\n", args...)
	os.Exit(1)
}
