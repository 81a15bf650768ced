package model

// Golden pins for exact solves of the DSCT-EA MIP: the node
// count, status and objective of a default-options mip.Solve with the
// rounding hook on small Fig 4 instances. The hook's candidates (the
// core.FixedAssignment optimum of the rounded assignment) set the early
// incumbents and the warm node solves run on the LP layer, so a change
// to either that alters the search shows up as a moved node count.
// Objectives are pinned within numeric.AlmostEqual.
//
// Regenerate after an intentional change with
//
//	go test ./internal/model -run TestGoldenFig4NodeCounts -update
//
// and name the moved instances in the change description.

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/mip"
	"repro/internal/numeric"
	"repro/internal/rng"
	"repro/internal/task"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_fig4.json from the current solver")

const goldenFig4Path = "testdata/golden_fig4.json"

// fig4Pin is one exact solve's golden record.
type fig4Pin struct {
	N      int     `json:"n"`
	Status string  `json:"status"`
	Nodes  int     `json:"nodes"`
	Obj    float64 `json:"obj"`
}

// fig4PinInstances is the pinned set: n = 8..12 on three machines, three
// replicates each.
const fig4PinInstances = 15

// fig4PinInstance builds pinned instance k.
func fig4PinInstance(t *testing.T, k int) *task.Instance {
	t.Helper()
	n := 8 + k%5
	in, err := task.GenerateUniformFleet(rng.NewReplicate(5, "model/golden-fig4", k), task.PaperFig4(n), 3)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestGoldenFig4NodeCounts(t *testing.T) {
	got := make([]fig4Pin, fig4PinInstances)
	for k := range got {
		in := fig4PinInstance(t, k)
		mm := BuildMIP(in)
		res, err := mip.Solve(mm.Prob, mip.Options{Rounding: mm.RoundingHook()})
		if err != nil {
			t.Fatalf("instance %d: %v", k, err)
		}
		got[k] = fig4Pin{N: in.N(), Status: res.Status.String(), Nodes: res.Nodes, Obj: res.Objective}
	}
	if *updateGolden {
		var buf bytes.Buffer
		buf.WriteString("[\n")
		for k, p := range got {
			raw, err := json.Marshal(p)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(raw)
			if k < len(got)-1 {
				buf.WriteByte(',')
			}
			buf.WriteByte('\n')
		}
		buf.WriteString("]\n")
		if err := os.MkdirAll(filepath.Dir(goldenFig4Path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFig4Path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(goldenFig4Path)
	if err != nil {
		t.Fatal(err)
	}
	var want []fig4Pin
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != fig4PinInstances {
		t.Fatalf("%s pins %d instances, want %d", goldenFig4Path, len(want), fig4PinInstances)
	}
	for k, w := range want {
		g := got[k]
		if g.N != w.N || g.Status != w.Status || g.Nodes != w.Nodes || !numeric.AlmostEqual(g.Obj, w.Obj) {
			t.Errorf("instance %d (n=%d): got %s, %d nodes, objective %.17g; pinned %s, %d nodes, objective %.17g",
				k, g.N, g.Status, g.Nodes, g.Obj, w.Status, w.Nodes, w.Obj)
		}
	}
}

// TestDualDegenerateCycleSolvesToOptimality rebuilds two exact-small
// benchmark instances on which a warm node LP used to cycle through
// dual-degenerate pivots until its iteration limit, which stopped the whole
// search with a Feasible status and no limit set. Bland's rule must engage
// in the dual phase too, so the warm search now proves the same optimum a
// cold search (every node solved from scratch) finds.
func TestDualDegenerateCycleSolvesToOptimality(t *testing.T) {
	for _, tc := range []struct{ n, replicate int }{{10, 113}, {8, 437}} {
		src := rng.NewReplicate(3, fmt.Sprintf("dsctbench/exact-small/n=%d", tc.n), tc.replicate)
		in, err := task.GenerateUniformFleet(src, task.PaperFig4(tc.n), 3)
		if err != nil {
			t.Fatal(err)
		}
		mm := BuildMIP(in)
		cold, err := mip.Solve(mm.Prob, mip.Options{Rounding: mm.RoundingHook(), DisableWarmStart: true})
		if err != nil {
			t.Fatal(err)
		}
		if cold.Status != mip.Optimal {
			t.Fatalf("n=%d replicate %d: cold search %v", tc.n, tc.replicate, cold.Status)
		}
		warm, err := mip.Solve(mm.Prob, mip.Options{Rounding: mm.RoundingHook()})
		if err != nil {
			t.Fatal(err)
		}
		if warm.Status != mip.Optimal || !numeric.AlmostEqual(warm.Objective, cold.Objective) {
			t.Errorf("n=%d replicate %d: warm search %v at %.12g after %d nodes, cold optimum %.12g",
				tc.n, tc.replicate, warm.Status, warm.Objective, warm.Nodes, cold.Objective)
		}
	}
}
