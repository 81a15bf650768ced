package core

// Golden pins for DSCT-EA-FR-OPT. Each pinned instance is solved by
// SolveFR with default options and recorded by its TotalAccuracy, its
// refinement sweep count, its V(p) probe count and FNV digests of the
// refined Profile and the work vector. The instances are the Table 1
// generator at n ∈ {100, 200}, m=5 (the experiment's own replicates);
// Fig 6b skewed instances, where the naive profile is suboptimal and
// refinement actually sweeps; Fig 6a and 6b instances on the 13-GPU
// catalog fleet, whose many machines give the line searches the most
// directions; and uniform fleets at m ∈ {2, 3, 8}.
//
// Sweeps and probes must match exactly and TotalAccuracy must stay within
// 1e-12 relative of the recorded value; the digests pin the solution bit
// for bit. Regenerate the digests and probe counts after an intentional
// change with
//
//	go test ./internal/core -run TestGoldenSolveFR -update
//
// which rewrites them and keeps the recorded accuracies and sweep counts,
// and name the moved instances in the change description.

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"testing"

	"repro/internal/machine"
	"repro/internal/rng"
	"repro/internal/task"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.json from the current solver")

const goldenPath = "testdata/golden.json"

// frPin is one instance's golden record.
type frPin struct {
	Name    string  `json:"name"`
	Total   float64 `json:"total_accuracy"`
	Sweeps  int     `json:"sweeps"`
	Probes  int     `json:"probes"`  // FRSolution.Probes
	Profile uint64  `json:"profile"` // digest of FRSolution.Profile
	Work    uint64  `json:"work"`    // digest of FRSolution.Work
}

// goldenInstance is one pinned input.
type goldenInstance struct {
	name string
	gen  func() (*task.Instance, error)
}

// goldenInstances lists the pinned inputs in file order.
func goldenInstances() []goldenInstance {
	var out []goldenInstance
	for _, n := range []int{100, 200} {
		for i := 0; i < 3; i++ {
			label := fmt.Sprintf("table1/n=%d", n)
			out = append(out, goldenInstance{
				name: fmt.Sprintf("%s/rep=%d", label, i),
				gen: func() (*task.Instance, error) {
					cfg := task.DefaultConfig(n, 0.35, 0.5)
					cfg.ThetaMax = 0.5
					return task.GenerateUniformFleet(rng.NewReplicate(1, label, i), cfg, 5)
				},
			})
		}
	}
	for _, beta := range []float64{0.05, 0.1, 0.2, 0.3} {
		for i := 0; i < 2; i++ {
			label := fmt.Sprintf("fig6b/beta=%g", beta)
			out = append(out, goldenInstance{
				name: fmt.Sprintf("%s/rep=%d", label, i),
				gen: func() (*task.Instance, error) {
					cfg, err := task.PaperFig6(100, task.EarliestHighEfficient, beta)
					if err != nil {
						return nil, err
					}
					return task.Generate(rng.NewReplicate(1, label, i), cfg, machine.TwoMachineScenario())
				},
			})
		}
	}
	for _, sc := range []struct {
		fig      string
		scenario task.Scenario
	}{{"fig6a", task.Uniform}, {"fig6b", task.EarliestHighEfficient}} {
		for _, beta := range []float64{0.1, 0.15, 0.2, 0.3} {
			for i := 0; i < 8; i++ {
				label := fmt.Sprintf("%s-catalog/beta=%g", sc.fig, beta)
				out = append(out, goldenInstance{
					name: fmt.Sprintf("%s/rep=%d", label, i),
					gen: func() (*task.Instance, error) {
						cfg, err := task.PaperFig6(50, sc.scenario, beta)
						if err != nil {
							return nil, err
						}
						return task.Generate(rng.NewReplicate(1, label, i), cfg, machine.CatalogFleet())
					},
				})
			}
		}
	}
	for _, m := range []int{2, 3, 8} {
		for _, rb := range [][2]float64{{0.05, 0.1}, {0.1, 0.05}, {0.35, 0.1}} {
			label := fmt.Sprintf("uniform/m=%d/rho=%g/beta=%g", m, rb[0], rb[1])
			out = append(out, goldenInstance{
				name: label,
				gen: func() (*task.Instance, error) {
					cfg := task.DefaultConfig(60, rb[0], rb[1])
					cfg.ThetaMax = 1.0
					return task.GenerateUniformFleet(rng.NewReplicate(1, label, 0), cfg, m)
				},
			})
		}
	}
	return out
}

// digest is an FNV-1a hash of the IEEE-754 bits of x: equal digests mean
// bit-identical vectors.
func digest(x []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range x {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		_, _ = h.Write(b[:]) // a hash.Hash never returns an error
	}
	return h.Sum64()
}

func solvePin(g goldenInstance) (frPin, error) {
	in, err := g.gen()
	if err != nil {
		return frPin{}, err
	}
	sol, err := SolveFR(in, FROptions{})
	if err != nil {
		return frPin{}, err
	}
	return frPin{
		Name:    g.name,
		Total:   sol.TotalAccuracy,
		Sweeps:  sol.Sweeps,
		Probes:  sol.Probes,
		Profile: digest(sol.Profile),
		Work:    digest(sol.Work),
	}, nil
}

// writeGolden re-solves every instance and rewrites the digests. The
// accuracy and sweep count of an instance already in the file are kept,
// so a re-pinned solver is still held to the values it did not produce.
func writeGolden(insts []goldenInstance) error {
	kept := map[string]frPin{}
	if raw, err := os.ReadFile(goldenPath); err == nil {
		var old []frPin
		if err := json.Unmarshal(raw, &old); err != nil {
			return err
		}
		for _, p := range old {
			kept[p.Name] = p
		}
	}
	pins := make([]frPin, len(insts))
	for i, g := range insts {
		pin, err := solvePin(g)
		if err != nil {
			return fmt.Errorf("%s: %w", g.name, err)
		}
		if old, ok := kept[g.name]; ok {
			pin.Total, pin.Sweeps = old.Total, old.Sweeps
		}
		pins[i] = pin
	}
	raw, err := json.MarshalIndent(pins, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath, append(raw, '\n'), 0o644)
}

func TestGoldenSolveFR(t *testing.T) {
	insts := goldenInstances()
	if *updateGolden {
		if err := writeGolden(insts); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var pins []frPin
	if err := json.Unmarshal(raw, &pins); err != nil {
		t.Fatal(err)
	}
	if len(pins) != len(insts) {
		t.Fatalf("%s pins %d instances, want %d", goldenPath, len(pins), len(insts))
	}
	for i, g := range insts {
		want := pins[i]
		if want.Name != g.name {
			t.Fatalf("pin %d is %q, want %q", i, want.Name, g.name)
		}
		got, err := solvePin(g)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if got.Sweeps != want.Sweeps {
			t.Errorf("%s: %d sweeps, pinned %d", g.name, got.Sweeps, want.Sweeps)
		}
		if got.Probes != want.Probes {
			t.Errorf("%s: %d probes, pinned %d", g.name, got.Probes, want.Probes)
		}
		if rel := math.Abs(got.Total-want.Total) / math.Max(1, math.Abs(want.Total)); rel > 1e-12 {
			t.Errorf("%s: accuracy %.17g, pinned %.17g (rel %g)", g.name, got.Total, want.Total, rel)
		}
		if got.Profile != want.Profile || got.Work != want.Work {
			t.Errorf("%s: digests profile %#x work %#x, pinned %#x %#x",
				g.name, got.Profile, got.Work, want.Profile, want.Work)
		}
	}
}
