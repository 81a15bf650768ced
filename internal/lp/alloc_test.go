package lp

import (
	"testing"

	"repro/internal/rng"
)

// Allocation-regression pins on the solver's hot paths. The FTRAN/BTRAN
// triangular solves and the eta-file pivot update run once per simplex
// pivot per node across the whole branch-and-bound tree, so a stray
// allocation there multiplies into the millions; these tests pin them to
// zero steady-state allocations. The warm re-solve path (SolveFrom) cannot
// be allocation-free — it builds a fresh solver — but its per-call count is
// pinned under a generous ceiling so an accidental O(m²) copy (the exact
// regression the LU kernel removed) cannot creep back in unnoticed.

// raceEnabled reports whether the race detector is active in this build;
// race_on_test.go flips it under the race build tag.
var raceEnabled = false

// allocFactor builds a representative factor with a few etas absorbed,
// plus a dense right-hand side and a loaded scratch, for the kernel
// allocation pins.
func allocFactor(t *testing.T) (f *luFactor, rhs, out []float64, bs *solveScratch) {
	t.Helper()
	s := rng.New(21, "lp-alloc")
	m := 40
	B := randomSparseBasis(s, m, 3*m)
	colPtr, rowIdx, vals := cscFromDense(B)
	f, err := factorizeBasis(m, colPtr, rowIdx, vals)
	if err != nil {
		t.Fatal(err)
	}
	rhs = make([]float64, m)
	out = make([]float64, m)
	for i := range rhs {
		rhs[i] = s.Uniform(-2, 2)
	}
	bs = &solveScratch{}
	// Absorb a few etas so the pins cover the eta-application loops too.
	w := make([]float64, m)
	for e := 0; e < 4; e++ {
		r := s.Intn(m)
		a := make([]float64, m)
		for i := range a {
			a[i] = 1.5 * B[i][r]
		}
		ftranVec(f, a, w, bs)
		f.appendEta(r, w, nonzeros(w))
	}
	bs.load(f)
	return f, rhs, out, bs
}

func TestAllocsFtranBtran(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	f, rhs, out, bs := allocFactor(t)
	m := len(rhs)
	// A dense input takes the dense passes; a unit vector keeps the
	// supports under the switch through the triangular stages and the
	// eta file, so it pins the support walks.
	unit := make([]float64, m)
	unit[3] = 1
	outSupp := make([]int, 0, m)
	for _, in := range []struct {
		name string
		c    []float64
	}{{"dense", rhs}, {"hyper-sparse", unit}} {
		supp := appendSupport(nil, in.c)
		if got := testing.AllocsPerRun(100, func() {
			clear(out)
			f.ftran(in.c, supp, out, outSupp, bs)
		}); got != 0 {
			t.Errorf("%s ftran allocates %.0f per run, want 0", in.name, got)
		}
		if got := testing.AllocsPerRun(100, func() {
			clear(out)
			f.btran(in.c, supp, out, outSupp, bs)
		}); got != 0 {
			t.Errorf("%s btran allocates %.0f per run, want 0", in.name, got)
		}
	}
}

// TestAllocsPricing pins the primal pricing pass and entering choice at
// zero allocations on a warmed Workspace, at the optimum of a staircase LP
// with m >= 1,000 rows: the dense pass, the incremental passes that follow
// it, and the dense pass the dual phase takes. The generator costs every
// column, which makes y dense, so the pin prices a cost vector with two
// costed columns, one of them basic, as the fractional relaxation's LP
// costs only its accuracy columns.
func TestAllocsPricing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	g := generateStaircaseLP(rng.New(35, "lp-alloc-pricing"), 200, 5)
	ws := NewWorkspace()
	for warm := 0; warm < 2; warm++ {
		if _, err := ws.Solve(g.p, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	tr := &ws.rev
	if tr.m < 1000 {
		t.Fatalf("m = %d, want >= 1000", tr.m)
	}
	c := make([]float64, tr.width)
	for _, col := range tr.basis {
		if col < tr.n {
			c[col] = 1
			c[(col+1)%tr.n] = 1
			break
		}
	}
	tr.dAll = true
	for warm := 0; warm < 3; warm++ {
		tr.prices(c, true)
		tr.entering(c)
	}
	if tr.dAll {
		t.Fatal("pricing at the optimum never left the dense pass; the incremental pass goes unpinned")
	}
	if got := testing.AllocsPerRun(100, func() {
		tr.prices(c, true)
		tr.entering(c)
	}); got != 0 {
		t.Errorf("incremental pricing allocates %.0f per run, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() {
		tr.prices(c, false)
		tr.entering(c)
	}); got != 0 {
		t.Errorf("dense pricing allocates %.0f per run, want 0", got)
	}
}

//lint:freezer rewinds the test-local factor's eta file between measured appends
func TestAllocsEtaAppend(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	f, rhs, out, bs := allocFactor(t)
	ftranVec(f, rhs, out, bs)
	nz := nonzeros(out)
	r := 7
	// Steady state: truncate the eta file back after each append so the
	// arena capacities grown by the warm-up call are reused. The pin is on
	// the append itself, not on slice growth.
	n0, i0 := len(f.etaPos), len(f.etaIdx)
	if got := testing.AllocsPerRun(100, func() {
		f.appendEta(r, out, nz)
		f.etaPos = f.etaPos[:n0]
		f.etaDiag = f.etaDiag[:n0]
		f.etaPtr = f.etaPtr[:n0+1]
		f.etaIdx = f.etaIdx[:i0]
		f.etaVal = f.etaVal[:i0]
	}); got != 0 {
		t.Errorf("appendEta allocates %.0f per run at steady state, want 0", got)
	}
}

// TestAllocsWarmResolve pins the allocation count of a whole warm-started
// re-solve of a branch-and-bound-shaped child. The dominant costs are the
// solver workspace (O(m + n) slices) and the adopted factor; the ceiling
// is far below what an O(m²) dense-inverse copy would add (m² floats are
// ~100 allocations' worth of one 8KB block each at this size, but the real
// guard is the count staying flat when m grows — see the two sizes).
func TestAllocsWarmResolve(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	for _, sz := range [][2]int{{30, 3}, {60, 3}} {
		s := rng.NewReplicate(22, "lp-alloc-warm", sz[0])
		g := generateStaircaseLP(s, sz[0], sz[1])
		sol, bs, err := SolveBasis(g.p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != Optimal {
			t.Fatalf("status %v", sol.Status)
		}
		v := s.Intn(g.p.NumVars())
		child := g.p.Overlay()
		child.SetBounds(v, 0, sol.X[v]/2)
		got := testing.AllocsPerRun(20, func() {
			if _, _, err := SolveFrom(child, bs, Options{}); err != nil {
				t.Fatal(err)
			}
		})
		// Workspace slices + CSC build + solution: ~55 today, flat in m. An
		// O(m) allocation pattern per pivot or an m² snapshot copy would
		// blow straight through the ceiling.
		const ceiling = 100
		if got > ceiling {
			t.Errorf("%dx%d: warm SolveFrom allocates %.0f per run, want <= %d",
				sz[0], sz[1], got, ceiling)
		}
	}
}
