package model

// Golden pins for the fractional relaxation's LP at Table 1 scale: a cold
// lp.SolveBasis of BuildFR on the Table 1 generator (ρ=0.35, β=0.5,
// θ in [0.1, 0.5]) at m=5 and n = 100, 150 and 200, three draws each, and
// a bounds-tightened child warm-started from each cold basis. Each solve
// is pinned by its status, its iteration count, the bits of its objective
// and an FNV digest of the bits of X, so a kernel change that moves one
// pivot, or one bit of one value, fails here. These LPs have 1,101 to
// 2,201 rows and a cost on only n of their n·(m+1) columns, which keeps
// the simplex vectors hyper-sparse, a regime the lp package's own corpus
// does not reach.
//
// Regenerate after an intentional change with
//
//	go test ./internal/model -run TestGoldenFRLP -update
//
// and name the moved pins in the change description.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/lp"
	"repro/internal/rng"
	"repro/internal/task"
)

const goldenFRPath = "testdata/golden_fr.json"

// frSizes and frDraws span the pinned set: three draws at each size.
var frSizes = []int{100, 150, 200}

const frDraws = 3

// frSolvePin is one LP solve's golden record.
type frSolvePin struct {
	Status     string `json:"status"`
	Iterations int    `json:"iterations"`
	Obj        uint64 `json:"obj_bits"`
	X          uint64 `json:"x_digest"`
}

// frPin holds one draw's cold and child pins.
type frPin struct {
	N     int        `json:"n"`
	Draw  int        `json:"draw"`
	Cold  frSolvePin `json:"cold"`
	Child frSolvePin `json:"child"`
}

// digestBits is an FNV-1a hash of the IEEE-754 bits of x.
func digestBits(x []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range x {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		_, _ = h.Write(b[:]) // a hash.Hash never returns an error
	}
	return h.Sum64()
}

func frSolvePinOf(s *lp.Solution) frSolvePin {
	return frSolvePin{
		Status:     s.Status.String(),
		Iterations: s.Iterations,
		Obj:        math.Float64bits(s.Objective),
		X:          digestBits(s.X),
	}
}

// frPinModel builds the FR model of draw k at size n.
func frPinModel(t *testing.T, n, k int) *FRModel {
	t.Helper()
	cfg := task.DefaultConfig(n, 0.35, 0.5)
	cfg.ThetaMax = 0.5
	in, err := task.GenerateUniformFleet(rng.NewReplicate(7, fmt.Sprintf("model/golden-fr/n=%d", n), k), cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	return BuildFR(in)
}

// solveFRPin solves draw k at size n cold, then a child whose largest t
// column (the lowest index among ties) has its upper bound halved below
// its cold value, warm-started from the cold basis.
func solveFRPin(t *testing.T, n, k int) frPin {
	t.Helper()
	fm := frPinModel(t, n, k)
	cold, bs, err := lp.SolveBasis(fm.Prob, lp.Options{})
	if err != nil {
		t.Fatalf("n=%d draw %d: cold solve: %v", n, k, err)
	}
	if cold.Status != lp.Optimal {
		t.Fatalf("n=%d draw %d: cold solve ended %v", n, k, cold.Status)
	}
	v := -1
	for j := 0; j < n; j++ {
		for r := 0; r < 5; r++ {
			if c := fm.TVar(j, r); v < 0 || cold.X[c] > cold.X[v] {
				v = c
			}
		}
	}
	if cold.X[v] <= 0 {
		t.Fatalf("n=%d draw %d: no t column is positive at the cold optimum", n, k)
	}
	child := fm.Prob.Overlay()
	child.SetBounds(v, 0, cold.X[v]/2)
	warm, _, err := lp.SolveFrom(child, bs, lp.Options{})
	if err != nil {
		t.Fatalf("n=%d draw %d: warm child solve: %v", n, k, err)
	}
	return frPin{N: n, Draw: k, Cold: frSolvePinOf(cold), Child: frSolvePinOf(warm)}
}

func TestGoldenFRLP(t *testing.T) {
	var got []frPin
	for _, n := range frSizes {
		for k := 0; k < frDraws; k++ {
			got = append(got, solveFRPin(t, n, k))
		}
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
		if err := os.MkdirAll(filepath.Dir(goldenFRPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFRPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(goldenFRPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []frPin
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("%s pins %d solves, want %d", goldenFRPath, len(want), len(got))
	}
	for i, w := range want {
		g := got[i]
		if g != w {
			t.Errorf("n=%d draw %d: got %+v, pinned %+v", g.N, g.Draw, g, w)
		}
	}
}
