package lp

// Workspace differential suite: a solve on a reused Workspace must be
// BIT-IDENTICAL — status, objective, iteration count and every solution
// component compared with ==, not a tolerance — to the fresh-allocation
// solve of the same instance, across the whole 240-instance corpus, on
// the cold path, the warm SolveFrom path, the grandchild inheritance
// chain and the batch harness. The workspace rewires where buffers come
// from, never what arithmetic runs on them, so exact equality is the
// honest criterion; any drift means a stale buffer leaked state between
// solves. The companion TestAllocsWorkspace* pins hold the zero
// steady-state allocation claim the whole PR is named after.

import (
	"math"
	"strconv"
	"testing"

	"repro/internal/rng"
)

// assertIdentical fails unless the workspace solution b is bit-identical
// to the fresh-allocation reference a.
func assertIdentical(t *testing.T, label string, a, b *Solution) {
	t.Helper()
	if a.Status != b.Status {
		t.Fatalf("%s: status %v != %v", label, a.Status, b.Status)
	}
	if a.Iterations != b.Iterations {
		t.Fatalf("%s: iterations %d != %d", label, a.Iterations, b.Iterations)
	}
	//lint:ignore floatcmp bit-identical reuse is the contract under test
	if a.Objective != b.Objective {
		t.Fatalf("%s: objective %.17g != %.17g", label, a.Objective, b.Objective)
	}
	if len(a.X) != len(b.X) {
		t.Fatalf("%s: len(X) %d != %d", label, len(a.X), len(b.X))
	}
	for v := range a.X {
		//lint:ignore floatcmp bit-identical reuse is the contract under test
		if a.X[v] != b.X[v] {
			t.Fatalf("%s: x[%d] %.17g != %.17g", label, v, a.X[v], b.X[v])
		}
	}
}

// workspaceDiffOptions are the sweeps the cold differential runs: the
// small random corpus and larger, sparser DSCT-EA-FR staircases (the
// sparse sweep, where refactorisation triggers), so each instance
// exercises every reused buffer.
var workspaceDiffOptions = []struct {
	name      string
	opts      Options
	staircase bool
}{
	{"default", Options{}, false},
	{"sparse", Options{}, true},
}

// workspaceStaircaseCount is the size of the staircase corpus the sparse
// cold sweeps run over.
const workspaceStaircaseCount = 24

// workspaceStaircase derives staircase instance i of that corpus.
func workspaceStaircase(i int) *genLP {
	s := rng.NewReplicate(9, "lp-workspace-staircase", i)
	nTasks := 20 + s.Intn(41) // 20..60 tasks
	mMach := 2 + s.Intn(3)    // 2..4 machines
	return generateStaircaseLP(s, nTasks, mMach)
}

// TestWorkspaceDifferentialCold: one Workspace per sweep is reused across
// all of its instances in sequence — shapes grow and
// shrink between solves, the harshest re-init pattern — and every solve
// must be bit-identical to a fresh SolveBasis of the same instance, as must
// the package-level Solve.
func TestWorkspaceDifferentialCold(t *testing.T) {
	for _, tc := range workspaceDiffOptions {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			ws := NewWorkspace()
			count, instance := corpusSize, corpusInstance
			if tc.staircase {
				count, instance = workspaceStaircaseCount, workspaceStaircase
			}
			for i := 0; i < count; i++ {
				label := tc.name + "/" + strconv.Itoa(i)
				g := instance(i)
				fresh, _, err := SolveBasis(g.p, tc.opts)
				if err != nil {
					t.Fatal(err)
				}
				got, err := ws.Solve(g.p, tc.opts)
				if err != nil {
					t.Fatalf("%s: ws.Solve: %v", label, err)
				}
				assertIdentical(t, label+"/solve", fresh, got)

				plain, err := Solve(g.p, tc.opts)
				if err != nil {
					t.Fatal(err)
				}
				assertIdentical(t, label+"/package-solve", fresh, plain)
			}
		})
	}
}

// TestWorkspaceDifferentialWarm: the warm-start chain on a reused
// Workspace — parent basis into a bound-tightened child, child basis into
// a grandchild, both the no-basis SolveFrom and the basis-publishing
// SolveBasisFrom — must be bit-identical to the package-level SolveFrom
// chain.
func TestWorkspaceDifferentialWarm(t *testing.T) {
	for _, mode := range []struct {
		name string
		opts Options
	}{
		{"sparse", Options{}},
	} {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			t.Parallel()
			ws := NewWorkspace()
			for i := 0; i < corpusSize; i++ {
				label := mode.name + "/" + strconv.Itoa(i)
				g := corpusInstance(i)
				parent, bs, err := SolveBasis(g.p, mode.opts)
				if err != nil {
					t.Fatal(err)
				}
				if parent.Status != Optimal {
					continue
				}
				s := rng.NewReplicate(6, "lp-workspace-warm", i)
				v := s.Intn(g.p.NumVars())
				child := g.p.Overlay()
				lo, hi := child.Bounds(v)
				child.SetBounds(v, lo, math.Max(lo, math.Min(hi, math.Floor(parent.X[v]))))

				fresh, fbs, err := SolveFrom(child, bs, mode.opts)
				if err != nil {
					t.Fatalf("%s: SolveFrom: %v", label, err)
				}
				got, err := ws.SolveFrom(child, bs, mode.opts)
				if err != nil {
					t.Fatalf("%s: ws.SolveFrom: %v", label, err)
				}
				assertIdentical(t, label+"/child", fresh, got)

				gotB, gbs, err := ws.SolveBasisFrom(child, bs, mode.opts)
				if err != nil {
					t.Fatalf("%s: ws.SolveBasisFrom: %v", label, err)
				}
				assertIdentical(t, label+"/child-basis", fresh, gotB)
				if (fbs == nil) != (gbs == nil) {
					t.Fatalf("%s: basis presence %v != %v", label, fbs == nil, gbs == nil)
				}
				if gbs == nil {
					continue
				}

				// Grandchild: warm-start from the workspace-published child
				// basis and from the fresh child basis; both chains must land
				// on the same vertex bit-for-bit. The workspace basis must
				// stay valid across the further solves on the same workspace
				// (it is a copy-out, never aliased).
				v2 := s.Intn(g.p.NumVars())
				grand := child.Overlay()
				lo2, hi2 := grand.Bounds(v2)
				grand.SetBounds(v2, lo2, math.Max(lo2, math.Min(hi2, math.Floor(fresh.X[v2]))))
				fresh2, _, err := SolveFrom(grand, fbs, mode.opts)
				if err != nil {
					t.Fatalf("%s: grandchild SolveFrom: %v", label, err)
				}
				got2, err := ws.SolveFrom(grand, gbs, mode.opts)
				if err != nil {
					t.Fatalf("%s: grandchild ws.SolveFrom: %v", label, err)
				}
				assertIdentical(t, label+"/grandchild", fresh2, got2)
			}
		})
	}
}

// clone returns an independent deep copy of a possibly Workspace-aliased
// Solution.
func (s *Solution) clone() *Solution {
	c := *s
	if s.X != nil {
		c.X = append([]float64(nil), s.X...)
	}
	return &c
}

// TestWorkspaceAliasingAndReset pins the documented output-aliasing
// contract: the Solution returned by ws.Solve is overwritten by the next
// solve on the same workspace, and Reset relinquishes it so a retained
// Solution survives further solves.
func TestWorkspaceAliasingAndReset(t *testing.T) {
	a, b := corpusInstance(1), corpusInstance(2)
	ws := NewWorkspace()
	ref, err := ws.Solve(a.p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := ref.clone()
	if _, err := ws.Solve(b.p, Options{}); err != nil {
		t.Fatal(err)
	}
	// Same pointer, now holding instance b's result: the documented hazard.
	fresh, _, err := SolveBasis(b.p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, "overwritten", fresh, ref)

	// Reset, retain, solve again: the retained Solution must be untouched.
	kept, err := ws.Solve(a.p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ws.Reset()
	if _, err := ws.Solve(b.p, Options{}); err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, "retained-after-reset", want, kept)
}

// allocPinCases are the representative instances the AllocsPerRun pins
// run on: a small and a larger staircase and a boxed (bounded-variable)
// instance.
func allocPinCases() []struct {
	name string
	p    *Problem
	opts Options
} {
	small := generateStaircaseLP(rng.New(31, "lp-workspace-alloc-dense"), 30, 3)
	large := generateStaircaseLP(rng.New(32, "lp-workspace-alloc-sparse"), 80, 4)
	sBox := rng.New(33, "lp-workspace-alloc-boxed")
	boxed := generateBoundedLP(sBox, 6, 8)
	return []struct {
		name string
		p    *Problem
		opts Options
	}{
		{"staircase-30x3", small.p, Options{}},
		{"staircase-80x4", large.p, Options{}},
		{"boxed", boxed.p, Options{}},
	}
}

// TestAllocsWorkspaceSolve pins Workspace.Solve at ZERO allocations per
// solve once warmed up, on staircase and boxed instances.
func TestAllocsWorkspaceSolve(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	for _, tc := range allocPinCases() {
		ws := NewWorkspace()
		for warm := 0; warm < 3; warm++ {
			if _, err := ws.Solve(tc.p, tc.opts); err != nil {
				t.Fatal(err)
			}
		}
		if got := testing.AllocsPerRun(50, func() {
			if _, err := ws.Solve(tc.p, tc.opts); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("%s: Workspace.Solve allocates %.0f per run at steady state, want 0", tc.name, got)
		}
	}
}

// TestAllocsWorkspaceSolveFrom pins Workspace.SolveFrom at ZERO
// allocations per warm re-solve once warmed up — the exact per-node cost
// of a branch-and-bound worker at steady state — on staircase and boxed
// instances.
func TestAllocsWorkspaceSolveFrom(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	for _, tc := range allocPinCases() {
		sol, bs, err := SolveBasis(tc.p, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != Optimal {
			t.Fatalf("%s: status %v", tc.name, sol.Status)
		}
		s := rng.New(34, "lp-workspace-alloc-child")
		v := s.Intn(tc.p.NumVars())
		child := tc.p.Overlay()
		lo, hi := child.Bounds(v)
		child.SetBounds(v, lo, math.Max(lo, math.Min(hi, sol.X[v]/2)))

		ws := NewWorkspace()
		for warm := 0; warm < 3; warm++ {
			if _, err := ws.SolveFrom(child, bs, tc.opts); err != nil {
				t.Fatal(err)
			}
		}
		if got := testing.AllocsPerRun(50, func() {
			if _, err := ws.SolveFrom(child, bs, tc.opts); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("%s: Workspace.SolveFrom allocates %.0f per run at steady state, want 0", tc.name, got)
		}
	}
}
