package experiments

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/numeric"
)

// tinyCfg shrinks everything so the full suite smoke-runs in seconds.
func tinyCfg() Config {
	return Config{Seed: 7, Replicates: 2, Scale: 0.1, Workers: 2, SolverTimeLimit: 2 * time.Second}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig1", "fig2", "fig3", "fig4a", "fig4b", "table1", "fig5", "gain", "fig6a", "fig6b",
		"ext-renewable", "ext-comm", "abl-refine", "batch",
	}
	have := map[string]bool{}
	for _, s := range All() {
		have[s.ID] = true
		if s.Title == "" || s.Description == "" || s.Run == nil {
			t.Errorf("%s: incomplete spec", s.ID)
		}
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("missing experiment %s", id)
		}
	}
	if _, err := Lookup("nope"); err == nil {
		t.Error("unknown id should fail lookup")
	}
}

func TestAllExperimentsSmokeRun(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke suite skipped in -short")
	}
	cfg := tinyCfg()
	for _, s := range All() {
		s := s
		t.Run(s.ID, func(t *testing.T) {
			tbl, err := Run(s.ID, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(tbl.Rows) == 0 {
				t.Fatal("no rows")
			}
			for i, row := range tbl.Rows {
				if len(row) != len(tbl.Columns) {
					t.Fatalf("row %d width %d != %d", i, len(row), len(tbl.Columns))
				}
			}
			var buf bytes.Buffer
			if err := tbl.WriteCSV(&buf); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(buf.String(), tbl.Columns[0]) {
				t.Error("CSV missing header")
			}
			if md := tbl.Markdown(); !strings.Contains(md, s.ID) {
				t.Error("markdown missing id")
			}
		})
	}
}

func TestFig5ShapeProperties(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short")
	}
	cfg := tinyCfg()
	cfg.Scale = 0.3 // n = 30: enough for the shape to show
	s, err := computeFig5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s.betas {
		// UB dominates approx; approx dominates (or matches within noise)
		// the baselines at every β.
		if s.approx[i] > s.ub[i]+1e-6 {
			t.Errorf("beta %g: approx %g above UB %g", s.betas[i], s.approx[i], s.ub[i])
		}
		if s.approx[i] < s.noComp[i]-0.02 {
			t.Errorf("beta %g: approx %g clearly below no-compression %g", s.betas[i], s.approx[i], s.noComp[i])
		}
	}
	// UB is non-decreasing in β.
	for i := 1; i < len(s.ub); i++ {
		if s.ub[i] < s.ub[i-1]-1e-6 {
			t.Errorf("UB decreased from β=%g to β=%g", s.betas[i-1], s.betas[i])
		}
	}
	// Everything converges at β = 1 to near a_max.
	last := len(s.betas) - 1
	if s.approx[last] < 0.8 || s.noComp[last] < 0.8 {
		t.Errorf("methods did not converge near a_max at β=1: approx %g, nocomp %g",
			s.approx[last], s.noComp[last])
	}
}

func TestFig6bProfileDeviatesFromNaive(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short")
	}
	cfg := tinyCfg()
	cfg.Scale = 0.4
	tbl, err := Run("fig6b", cfg)
	if err != nil {
		t.Fatal(err)
	}
	// At some β the refined p2 must exceed the naive p2 (work moves to the
	// fast machine), reproducing the paper's observation.
	deviated := false
	for _, row := range tbl.Rows {
		p2n, _ := strconv.ParseFloat(row[2], 64)
		p2, _ := strconv.ParseFloat(row[4], 64)
		if p2 > p2n+1e-9 {
			deviated = true
		}
	}
	if !deviated {
		t.Error("fig6b: refined profile never deviated from the naive one")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Seed != 1 || !numeric.AlmostEqual(c.Scale, 1) || c.Workers < 1 || c.SolverTimeLimit != 60*time.Second {
		t.Errorf("defaults wrong: %+v", c)
	}
	if got := c.scaled(100, 10); got != 100 {
		t.Errorf("scaled(100) at scale 1 = %d", got)
	}
	c.Scale = 0.05
	if got := c.scaled(100, 10); got != 10 {
		t.Errorf("scaled floor not applied: %d", got)
	}
	if got := c.replicates(100); got != 5 {
		t.Errorf("replicates scaled = %d, want 5", got)
	}
	c.Replicates = 3
	if got := c.replicates(100); got != 3 {
		t.Errorf("explicit replicates = %d, want 3", got)
	}
}

func TestParMapCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		n := 57
		hits := make([]int, n)
		parMap(workers, n, func(i int) { hits[i]++ })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d hit %d times", workers, i, h)
			}
		}
	}
	parMap(4, 0, func(int) { t.Fatal("fn called for n=0") })
}

func TestParMapErrReturnsLowestIndexError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := parMapErr(workers, 20, func(i int) error {
			if i == 7 || i == 13 {
				return fmt.Errorf("rep %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "rep 7 failed" {
			t.Errorf("workers=%d: err = %v, want lowest-index failure", workers, err)
		}
	}
	if err := parMapErr(4, 20, func(int) error { return nil }); err != nil {
		t.Errorf("all-nil run returned %v", err)
	}
}

func TestTableAddRowPanicsOnWidth(t *testing.T) {
	tbl := &Table{ID: "x", Columns: []string{"a", "b"}}
	defer func() {
		if recover() == nil {
			t.Error("short row should panic")
		}
	}()
	tbl.AddRow("only-one")
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{ID: "t", Title: "demo", Columns: []string{"a", "b"}}
	tbl.AddRow("1", "2")
	tbl.Note("note %d", 42)
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "a,b") || !strings.Contains(out, "1,2") || !strings.Contains(out, "# note 42") {
		t.Errorf("CSV = %q", out)
	}
	md := tbl.Markdown()
	if !strings.Contains(md, "| a | b |") || !strings.Contains(md, "*note 42*") {
		t.Errorf("markdown = %q", md)
	}
}

func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short")
	}
	a := tinyCfg()
	a.Workers = 1
	b := tinyCfg()
	b.Workers = 4
	ta, err := Run("fig3", a)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := Run("fig3", b)
	if err != nil {
		t.Fatal(err)
	}
	if len(ta.Rows) != len(tb.Rows) {
		t.Fatal("row counts differ")
	}
	for i := range ta.Rows {
		for c := range ta.Rows[i] {
			if ta.Rows[i][c] != tb.Rows[i][c] {
				t.Fatalf("row %d col %d differs: %s vs %s", i, c, ta.Rows[i][c], tb.Rows[i][c])
			}
		}
	}
}
