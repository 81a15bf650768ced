package mip

// Golden pins for the search: the node count, status and
// objective of a default-options solve of every search corpus
// instance (branchcut_test.go). Node counts are deterministic, so they
// are pinned exactly; objectives within
// numeric.AlmostEqual, since an alternative LP vertex at a degenerate
// optimum may change the last bits. A change to the LP layer that alters
// the tree — a different vertex, branching value or pruning decision —
// surfaces here as a moved node count.
//
// Regenerate after an intentional change with
//
//	go test ./internal/mip -run TestGoldenNodeCounts -update
//
// and name the moved instances in the change description.

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/numeric"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.json from the current solver")

const goldenPath = "testdata/golden.json"

// searchPin is one solve's golden record.
type searchPin struct {
	Status string  `json:"status"`
	Nodes  int     `json:"nodes"`
	Obj    float64 `json:"obj"`
}

func pinResult(r *Result) searchPin {
	return searchPin{Status: r.Status.String(), Nodes: r.Nodes, Obj: r.Objective}
}

func TestGoldenNodeCounts(t *testing.T) {
	const instances = 240
	got := make([]searchPin, instances)
	for i := range got {
		res, err := Solve(corpusProblem(i), Options{})
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		got[i] = pinResult(res)
	}
	if *updateGolden {
		var buf bytes.Buffer
		buf.WriteString("[\n")
		for i, p := range got {
			raw, err := json.Marshal(p)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(raw)
			if i < len(got)-1 {
				buf.WriteByte(',')
			}
			buf.WriteByte('\n')
		}
		buf.WriteString("]\n")
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []searchPin
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != instances {
		t.Fatalf("%s pins %d instances, want %d", goldenPath, len(want), instances)
	}
	for i, w := range want {
		g := got[i]
		if g.Status != w.Status || g.Nodes != w.Nodes || !numeric.AlmostEqual(g.Obj, w.Obj) {
			t.Errorf("instance %s: got %s, %d nodes, objective %.17g; pinned %s, %d nodes, objective %.17g",
				strconv.Itoa(i), g.Status, g.Nodes, g.Obj, w.Status, w.Nodes, w.Obj)
		}
	}
}
