// Command gen generates synthetic DSCT-EA problem instances as JSON, using
// the paper's workload model (§6): uniform machine fleets, exponential-
// derived piecewise-linear accuracy functions, deadline tolerance ρ and
// energy budget ratio β.
//
// Usage:
//
//	gen -n 100 -m 5 -rho 0.35 -beta 0.5 -seed 1 -out instance.json
//	gen -n 100 -m 2 -rho 0.01 -beta 0.4 -scenario earliest-high-efficient -two-machine
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/machine"
	"repro/internal/rng"
	"repro/internal/task"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "gen: %v\n", err)
		os.Exit(1)
	}
}

// run parses args and writes the generated instance to stdout (or -out),
// progress notes to stderr. Factored out of main so the flag surface and
// output format are testable without spawning a process.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		n          = fs.Int("n", 100, "number of tasks")
		m          = fs.Int("m", 5, "number of machines (uniform random fleet)")
		rho        = fs.Float64("rho", 0.35, "deadline tolerance ρ")
		beta       = fs.Float64("beta", 0.5, "energy budget ratio β")
		thetaMin   = fs.Float64("theta-min", 0.1, "minimum task efficiency θ")
		thetaMax   = fs.Float64("theta-max", 0.1, "maximum task efficiency θ")
		scenario   = fs.String("scenario", "uniform", "workload scenario: uniform | earliest-high-efficient")
		seed       = fs.Int64("seed", 1, "random seed")
		out        = fs.String("out", "", "output file (default stdout)")
		twoMachine = fs.Bool("two-machine", false, "use the paper's fixed Fig 6 two-machine fleet instead of a random one")
		preset     = fs.String("preset", "", "paper workload preset: fig3 | fig4 | fig5 | fig6a | fig6b (overrides rho/beta/theta/scenario; fig6* implies -two-machine)")
		mu         = fs.Float64("mu", 10, "task heterogeneity ratio for -preset fig3")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var cfg task.GenConfig
	switch *preset {
	case "":
		cfg = task.DefaultConfig(*n, *rho, *beta)
		cfg.ThetaMin, cfg.ThetaMax = *thetaMin, *thetaMax
		switch *scenario {
		case "uniform":
		case "earliest-high-efficient":
			cfg.Scenario = task.EarliestHighEfficient
			cfg.EarlyFraction = 0.30
			cfg.EarlyThetaMin, cfg.EarlyThetaMax = 4.0, 4.9
		default:
			return fmt.Errorf("unknown scenario %q", *scenario)
		}
	case "fig3":
		cfg = task.PaperFig3(*n, *mu)
	case "fig4":
		cfg = task.PaperFig4(*n)
	case "fig5":
		cfg = task.PaperFig5(*n, *beta)
	case "fig6a", "fig6b":
		sc := task.Uniform
		if *preset == "fig6b" {
			sc = task.EarliestHighEfficient
		}
		var err error
		cfg, err = task.PaperFig6(*n, sc, *beta)
		if err != nil {
			return err
		}
		*twoMachine = true
	default:
		return fmt.Errorf("unknown preset %q", *preset)
	}

	src := rng.New(*seed, "cmd/gen")
	var fleet machine.Fleet
	if *twoMachine {
		fleet = machine.TwoMachineScenario()
	} else {
		fleet = machine.UniformFleet(src, *m)
	}
	in, err := task.Generate(src, cfg, fleet)
	if err != nil {
		return fmt.Errorf("generating instance: %w", err)
	}

	w := stdout
	var f *os.File
	if *out != "" {
		f, err = os.Create(*out)
		if err != nil {
			return fmt.Errorf("creating %s: %w", *out, err)
		}
		w = f
	}
	if err := in.WriteJSON(w); err != nil {
		return fmt.Errorf("writing instance: %w", err)
	}
	if f != nil {
		// A deferred, unchecked Close would swallow flush errors on the
		// freshly written instance file.
		if err := f.Close(); err != nil {
			return fmt.Errorf("closing %s: %w", *out, err)
		}
	}
	_, _ = fmt.Fprintf(stderr, "generated n=%d m=%d d_max=%.4gs budget=%.4gJ (μ=%.3g)\n",
		in.N(), in.M(), in.MaxDeadline(), in.Budget, in.HeterogeneityRatio()) // progress note; best-effort
	return nil
}
