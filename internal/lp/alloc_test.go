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
// plus scratch slices, for the kernel allocation pins.
func allocFactor(t *testing.T) (f *luFactor, rhs, out, work, cw []float64, bs *btranScratch) {
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
	work = make([]float64, m)
	cw = make([]float64, m)
	for i := range rhs {
		rhs[i] = s.Uniform(-2, 2)
	}
	// Absorb a few etas so the pins cover the eta-application loops too.
	w := make([]float64, m)
	for e := 0; e < 4; e++ {
		r := s.Intn(m)
		a := make([]float64, m)
		for i := range a {
			a[i] = 1.5 * B[i][r]
		}
		f.ftran(a, w, work)
		f.appendEta(r, w, nonzeros(w))
	}
	bs = &btranScratch{}
	bs.load(f)
	return f, rhs, out, work, cw, bs
}

func TestAllocsFtranBtran(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	f, rhs, out, work, cw, bs := allocFactor(t)
	if got := testing.AllocsPerRun(100, func() {
		f.ftran(rhs, out, work)
	}); got != 0 {
		t.Errorf("ftran allocates %.0f per run, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() {
		f.btran(rhs, out, work, cw, bs)
	}); got != 0 {
		t.Errorf("btran allocates %.0f per run, want 0", got)
	}
	// A unit vector keeps the support under the hyper-sparse threshold
	// through the eta file, so this pins the support path.
	unit := make([]float64, len(rhs))
	unit[3] = 1
	if got := testing.AllocsPerRun(100, func() {
		f.btran(unit, out, work, cw, bs)
	}); got != 0 {
		t.Errorf("hyper-sparse btran allocates %.0f per run, want 0", got)
	}
}

//lint:freezer rewinds the test-local factor's eta file between measured appends
func TestAllocsEtaAppend(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	f, rhs, out, work, _, _ := allocFactor(t)
	f.ftran(rhs, out, work)
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
