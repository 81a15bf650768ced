package lp

// Golden pins for the simplex core. Every instance of the differential
// corpus is solved cold (SolveBasis) and warm along the three moves a
// branch-and-bound search makes — a bounds-tightened child, a grandchild
// chained from the child's basis, and a child with an appended bound row —
// and each solve is pinned by status, objective and a digest of the full
// solution vector, bit for bit. A smaller staircase corpus at DSCT-EA-FR
// scale pins the sparse, refactorising paths the same way.
//
// The pins also record reference objectives from two independent cores
// the package once carried: a dense two-phase tableau (on the cold
// instance) and a dense explicit-B⁻¹ basis kernel (on every pinned
// problem). The LU core must match those within numeric.AlmostEqual, so a
// deliberate change that re-pins its own digests is still held to answers
// it did not produce.
//
// Regenerate the pins after an intentional change with
//
//	go test ./internal/lp -run 'TestDifferential(ColdRevisedVsTableau|LUVsBinv)' -update
//
// which rewrites the LU pins and keeps the recorded reference objectives,
// and name the moved instances in the change description.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/numeric"
	"repro/internal/rng"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.json from the current solver")

const (
	goldenPath        = "testdata/golden.json"
	staircasePinCount = 12
)

// solvePin is one solve's golden record.
type solvePin struct {
	Status string  `json:"status"`
	Obj    float64 `json:"obj"`
	X      uint64  `json:"x"` // digestX of the solution vector
}

// corpusPins holds one differential-corpus instance's pins.
type corpusPins struct {
	Cold  solvePin `json:"cold"`
	Child solvePin `json:"child"`
	Grand solvePin `json:"grand"`
	Row   solvePin `json:"row"`
	// Tableau is the dense tableau's objective on the cold instance; Binv
	// holds the explicit-B⁻¹ kernel's objectives on cold, child, grand and
	// row, each warm-started from that kernel's own parent basis.
	Tableau float64    `json:"tableau_obj"`
	Binv    [4]float64 `json:"binv_obj"`
}

// staircasePins holds one staircase-corpus instance's pins.
type staircasePins struct {
	Cold  solvePin `json:"cold"`
	Child solvePin `json:"child"`
	// Binv holds the explicit-B⁻¹ kernel's cold objectives on the instance
	// and on the child.
	Binv [2]float64 `json:"binv_obj"`
}

type goldenFile struct {
	Corpus    []corpusPins    `json:"corpus"`
	Staircase []staircasePins `json:"staircase"`
}

// digestX is an FNV-1a hash of the IEEE-754 bits of x: equal digests mean
// bit-identical solution vectors.
func digestX(x []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range x {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		_, _ = h.Write(b[:]) // a hash.Hash never returns an error
	}
	return h.Sum64()
}

func pinOf(s *Solution) solvePin {
	return solvePin{Status: s.Status.String(), Obj: s.Objective, X: digestX(s.X)}
}

// checkPin fails unless s reproduces want bit for bit.
func checkPin(t *testing.T, label string, s *Solution, want solvePin) {
	t.Helper()
	got := pinOf(s)
	if got.Status != want.Status || math.Float64bits(got.Obj) != math.Float64bits(want.Obj) || got.X != want.X {
		t.Errorf("%s: got %s obj %.17g x %#x, pinned %s obj %.17g x %#x",
			label, got.Status, got.Obj, got.X, want.Status, want.Obj, want.X)
	}
}

// checkRef fails unless an optimal s matches a reference objective
// recorded from another core.
func checkRef(t *testing.T, label string, s *Solution, ref float64) {
	t.Helper()
	if s.Status == Optimal && !numeric.AlmostEqual(s.Objective, ref) {
		t.Errorf("%s: objective %.17g, reference core %.17g", label, s.Objective, ref)
	}
}

// corpusChain holds the solves one corpus instance is pinned by.
type corpusChain struct {
	g                       *genLP
	cold, child, grand, row *Solution
	coldBS, childBS         *Basis
	childP, grandP, rowP    *Problem
}

// solveCorpusChain derives and solves the pinned chain of corpus instance
// i: the child clamps one variable's upper bound to the floor of its cold
// value, the grandchild clamps a second one from the child's optimum, and
// the row child appends x_v <= floor(x_v) as an explicit row.
func solveCorpusChain(i int) (*corpusChain, error) {
	c := &corpusChain{g: corpusInstance(i)}
	var err error
	if c.cold, c.coldBS, err = SolveBasis(c.g.p, Options{}); err != nil {
		return nil, fmt.Errorf("cold: %w", err)
	}
	if c.cold.Status != Optimal {
		return nil, fmt.Errorf("corpus instance not optimal (%v); generator broken", c.cold.Status)
	}
	s := rng.NewReplicate(6, "lp-differential-factor", i)
	v := s.Intn(c.g.p.NumVars())
	c.childP = c.g.p.Clone()
	lo, _ := c.childP.Bounds(v)
	c.childP.SetBounds(v, lo, math.Max(lo, math.Floor(c.cold.X[v])))
	if c.child, c.childBS, err = SolveFrom(c.childP, c.coldBS, Options{}); err != nil {
		return nil, fmt.Errorf("child: %w", err)
	}
	c.grand = &Solution{Status: c.child.Status}
	if c.child.Status == Optimal {
		v2 := s.Intn(c.g.p.NumVars())
		c.grandP = c.childP.Clone()
		lo2, _ := c.grandP.Bounds(v2)
		c.grandP.SetBounds(v2, lo2, math.Max(lo2, math.Floor(c.child.X[v2])))
		if c.grand, _, err = SolveFrom(c.grandP, c.childBS, Options{}); err != nil {
			return nil, fmt.Errorf("grandchild: %w", err)
		}
	}
	s = rng.NewReplicate(7, "lp-differential-factor-rows", i)
	v = s.Intn(c.g.p.NumVars())
	c.rowP = c.g.p.Clone()
	c.rowP.AddConstraint([]Term{{Var: v, Coef: 1}}, LE, math.Floor(c.cold.X[v]))
	if c.row, _, err = SolveFrom(c.rowP, c.coldBS, Options{}); err != nil {
		return nil, fmt.Errorf("row child: %w", err)
	}
	return c, nil
}

// staircaseChain holds the solves one staircase instance is pinned by.
type staircaseChain struct {
	p, childP   *Problem
	cold, child *Solution
}

// solveStaircaseChain solves staircase instance i cold and its
// bounds-tightened child warm from the cold basis.
func solveStaircaseChain(i int) (*staircaseChain, error) {
	s := rng.NewReplicate(8, "lp-differential-factor-staircase", i)
	nTasks := 20 + s.Intn(41) // 20..60 tasks
	mMach := 2 + s.Intn(3)    // 2..4 machines
	c := &staircaseChain{p: generateStaircaseLP(s, nTasks, mMach).p}
	cold, bs, err := SolveBasis(c.p, Options{})
	if err != nil {
		return nil, fmt.Errorf("cold: %w", err)
	}
	if cold.Status != Optimal {
		return nil, fmt.Errorf("staircase instance not optimal (%v); generator broken", cold.Status)
	}
	c.cold = cold
	v := s.Intn(c.p.NumVars())
	c.childP = c.p.Clone()
	lo, _ := c.childP.Bounds(v)
	c.childP.SetBounds(v, lo, math.Max(lo, math.Floor(cold.X[v])))
	if c.child, _, err = SolveFrom(c.childP, bs, Options{}); err != nil {
		return nil, fmt.Errorf("child: %w", err)
	}
	return c, nil
}

var (
	goldenOnce sync.Once
	goldenData goldenFile
	goldenErr  error
)

// golden returns the committed pins, first regenerating them under
// -update.
func golden(t *testing.T) *goldenFile {
	t.Helper()
	goldenOnce.Do(func() {
		if *updateGolden {
			if goldenErr = writeGolden(); goldenErr != nil {
				return
			}
		}
		var raw []byte
		if raw, goldenErr = os.ReadFile(goldenPath); goldenErr != nil {
			return
		}
		if goldenErr = json.Unmarshal(raw, &goldenData); goldenErr != nil {
			return
		}
		if len(goldenData.Corpus) != corpusSize || len(goldenData.Staircase) != staircasePinCount {
			goldenErr = fmt.Errorf("%s pins %d corpus and %d staircase instances, want %d and %d",
				goldenPath, len(goldenData.Corpus), len(goldenData.Staircase), corpusSize, staircasePinCount)
		}
	})
	if goldenErr != nil {
		t.Fatal(goldenErr)
	}
	return &goldenData
}

// writeGolden recomputes every LU pin, keeping the reference objectives
// recorded in the committed file.
func writeGolden() error {
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		return err
	}
	var out goldenFile
	if err := json.Unmarshal(raw, &out); err != nil {
		return err
	}
	if len(out.Corpus) != corpusSize || len(out.Staircase) != staircasePinCount {
		return fmt.Errorf("%s does not cover the corpus; its reference objectives cannot be kept", goldenPath)
	}
	for i := range out.Corpus {
		c, err := solveCorpusChain(i)
		if err != nil {
			return fmt.Errorf("corpus %d: %w", i, err)
		}
		pin := &out.Corpus[i]
		pin.Cold, pin.Child, pin.Grand, pin.Row = pinOf(c.cold), pinOf(c.child), pinOf(c.grand), pinOf(c.row)
	}
	for i := range out.Staircase {
		c, err := solveStaircaseChain(i)
		if err != nil {
			return fmt.Errorf("staircase %d: %w", i, err)
		}
		out.Staircase[i].Cold, out.Staircase[i].Child = pinOf(c.cold), pinOf(c.child)
	}
	var buf bytes.Buffer
	buf.WriteString("{\"corpus\": [\n")
	if err := writeLines(&buf, out.Corpus); err != nil {
		return err
	}
	buf.WriteString("],\n\"staircase\": [\n")
	if err := writeLines(&buf, out.Staircase); err != nil {
		return err
	}
	buf.WriteString("]}\n")
	if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
		return err
	}
	return os.WriteFile(goldenPath, buf.Bytes(), 0o644)
}

// writeLines writes one JSON value per line, comma-separated, so a moved
// pin shows up as a one-line diff.
func writeLines[T any](buf *bytes.Buffer, items []T) error {
	for k, it := range items {
		raw, err := json.Marshal(it)
		if err != nil {
			return err
		}
		buf.Write(raw)
		if k < len(items)-1 {
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
	}
	return nil
}
