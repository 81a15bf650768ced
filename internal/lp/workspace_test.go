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
	"slices"
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

// assertSameBits fails unless b matches the package-level reference a bit
// for bit: status, iterations, and the IEEE-754 bits of the objective and
// of every component of X.
func assertSameBits(t *testing.T, label string, a, b *Solution) {
	t.Helper()
	if a.Status != b.Status || a.Iterations != b.Iterations ||
		math.Float64bits(a.Objective) != math.Float64bits(b.Objective) || len(a.X) != len(b.X) {
		t.Fatalf("%s: %v/%d iterations/obj %.17g/%d vars, package-level %v/%d/%.17g/%d", label,
			b.Status, b.Iterations, b.Objective, len(b.X), a.Status, a.Iterations, a.Objective, len(a.X))
	}
	for v := range a.X {
		if math.Float64bits(a.X[v]) != math.Float64bits(b.X[v]) {
			t.Fatalf("%s: x[%d] %.17g, package-level %.17g", label, v, b.X[v], a.X[v])
		}
	}
}

// assertSameCanonical fails unless the canonical form a Workspace's solver
// holds for p — the CSR and CSC of the oriented, equilibrated rows, their
// scales and right-hand sides — is bit for bit what a fresh solver builds.
func assertSameCanonical(t *testing.T, label string, got *rev, p *Problem) {
	t.Helper()
	want := newRev(p, Options{})
	ints := []struct {
		name    string
		got, wt []int
	}{
		{"rowPtr", got.sp.rowPtr[:got.m+1], want.sp.rowPtr[:want.m+1]},
		{"colIdx", got.sp.colIdx, want.sp.colIdx},
		{"colPtr", got.sp.colPtr, want.sp.colPtr},
		{"rowIdx", got.sp.rowIdx, want.sp.rowIdx},
	}
	for _, c := range ints {
		if !slices.Equal(c.got, c.wt) {
			t.Fatalf("%s: %s differs from a fresh build", label, c.name)
		}
	}
	floats := []struct {
		name    string
		got, wt []float64
	}{
		{"rowVal", got.sp.rowVal, want.sp.rowVal},
		{"colVal", got.sp.colVal, want.sp.colVal},
		{"rowScale", got.rowScale, want.rowScale},
		{"b", got.b, want.b},
	}
	for _, c := range floats {
		if len(c.got) != len(c.wt) {
			t.Fatalf("%s: %s has %d entries, a fresh build %d", label, c.name, len(c.got), len(c.wt))
		}
		for i := range c.wt {
			if math.Float64bits(c.got[i]) != math.Float64bits(c.wt[i]) {
				t.Fatalf("%s: %s[%d] = %.17g, a fresh build %.17g", label, c.name, i, c.got[i], c.wt[i])
			}
		}
	}
}

// TestWorkspaceRowCacheChain: one Workspace follows a staircase problem
// through every mutation the incremental engine makes (SetRHS,
// AppendTerms, AddConstraint, AddVariables, Deactivate) and through
// overlay nodes, then solves an unrelated problem of the same shape —
// every row the same length and sense, with other coefficients, so every
// row must miss the row cache — and goes back. At every step its cold and
// warm solves equal a fresh package-level solve bit for bit, and its
// canonical form equals a fresh build; a node that changed no row copies
// none.
func TestWorkspaceRowCacheChain(t *testing.T) {
	p := generateStaircaseLP(rng.New(35, "lp-workspace-chain"), 24, 3).p
	other := generateStaircaseLP(rng.New(36, "lp-workspace-chain"), 24, 3).p
	ws := NewWorkspace()
	var prev *Basis
	step := func(label string, q *Problem, warm bool) {
		t.Helper()
		want, bs, err := SolveBasis(q, Options{})
		if err != nil {
			t.Fatalf("%s: SolveBasis: %v", label, err)
		}
		got, err := ws.Solve(q, Options{})
		if err != nil {
			t.Fatalf("%s: Workspace.Solve: %v", label, err)
		}
		assertSameBits(t, label+"/cold", want, got)
		assertSameCanonical(t, label+"/cold", &ws.rev, q)
		if warm && prev != nil {
			wantW, _, err := SolveFrom(q, prev, Options{})
			if err != nil {
				t.Fatalf("%s: SolveFrom: %v", label, err)
			}
			gotW, err := ws.SolveFrom(q, prev, Options{})
			if err != nil {
				t.Fatalf("%s: Workspace.SolveFrom: %v", label, err)
			}
			assertSameBits(t, label+"/warm", wantW, gotW)
			gotB, _, err := ws.SolveBasisFrom(q, prev, Options{})
			if err != nil {
				t.Fatalf("%s: Workspace.SolveBasisFrom: %v", label, err)
			}
			assertSameBits(t, label+"/warm-basis", wantW, gotB)
			assertSameCanonical(t, label+"/warm", &ws.rev, q)
		}
		if bs != nil {
			prev = bs
		}
	}

	step("base", p, false)
	budget := p.NumConstraints() - 1 // the generator's energy row
	terms, _, rhs := p.Constraint(budget)
	step("set-rhs", p, true)
	p.SetRHS(budget, rhs*0.9)
	step("set-rhs", p, true)
	p.AppendTerms(budget, []Term{{Var: terms[0].Var, Coef: terms[0].Coef / 2}})
	step("append-terms", p, true)
	v := p.AddVariables(1)
	p.SetObjCoef(v, 0.5)
	p.SetBounds(v, 0, 1)
	p.AppendTerms(0, []Term{{Var: v, Coef: 1}})
	step("add-variables", p, true)
	p.AddConstraint([]Term{{Var: v, Coef: 1}, {Var: terms[0].Var, Coef: 1}}, LE, 1)
	step("add-constraint", p, true)
	p.Deactivate(terms[0].Var)
	step("deactivate", p, true)

	// A node changes bounds only: every row matches, nothing is copied or
	// re-indexed.
	rows, cols := &ws.rev.rb.rows.idx[0], &ws.rev.sp.rowIdx[0]
	node := p.Overlay()
	lo, hi := node.Bounds(v)
	node.SetBounds(v, lo, (lo+hi)/2)
	step("node", node, true)
	if &ws.rev.rb.rows.idx[0] != rows || &ws.rev.sp.rowIdx[0] != cols {
		t.Error("node: a bounds-only node rebuilt the rows or the transpose")
	}
	grand := node.Overlay()
	grand.AddConstraint([]Term{{Var: v, Coef: 2}}, LE, 1)
	step("grandchild", grand, true)

	step("unrelated", other, false)
	step("back", p, false)
	step("back-warm", p, true)
	// The same unrelated problem right after the first.
	step("unrelated", other, false)
	step("unrelated-again", other, false)
}

// TestAllocsWorkspaceGrownResolve pins the allocations of a Workspace warm
// re-solve, after warm-up, of a problem that grew by one row and one
// column since its snapshot, so the warm start extends the parent's
// factor across the appended row: none without a published Basis, and
// 13 with one — the Solution and X, the Basis with its entries, bound
// markers and frozen factor, the extension's two fresh arrays and the
// copy-on-write eta file's five.
func TestAllocsWorkspaceGrownResolve(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	for _, tc := range allocPinCases() {
		sol, bs, err := SolveBasis(tc.p, tc.opts)
		if err != nil || sol.Status != Optimal {
			t.Fatalf("%s: parent: %v %v", tc.name, sol.Status, err)
		}
		// The appended row reaches the structural column furthest inside
		// its box, which is basic.
		u, best := 0, -1.0
		for j, x := range sol.X {
			lo, hi := tc.p.Bounds(j)
			if d := math.Min(x-lo, hi-x); d > best {
				u, best = j, d
			}
		}
		grownP := tc.p.Overlay()
		v := grownP.AddVariables(1)
		grownP.SetObjCoef(v, 1)
		grownP.SetBounds(v, 0, 1)
		grownP.AddConstraint([]Term{{Var: v, Coef: 1}, {Var: u, Coef: 1}}, LE, sol.X[u]+0.5)

		ws := NewWorkspace()
		for warm := 0; warm < 3; warm++ {
			got, err := ws.SolveFrom(grownP, bs, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if got.FactorRebuilt {
				t.Fatalf("%s: the grown re-solve refactorised instead of extending", tc.name)
			}
			if _, _, err := ws.SolveBasisFrom(grownP, bs, tc.opts); err != nil {
				t.Fatal(err)
			}
		}
		if got := testing.AllocsPerRun(50, func() {
			if _, err := ws.SolveFrom(grownP, bs, tc.opts); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("%s: Workspace.SolveFrom of the grown problem allocates %.0f per run, want 0", tc.name, got)
		}
		const ceiling = 13
		if got := testing.AllocsPerRun(50, func() {
			if _, _, err := ws.SolveBasisFrom(grownP, bs, tc.opts); err != nil {
				t.Fatal(err)
			}
		}); got > ceiling {
			t.Errorf("%s: Workspace.SolveBasisFrom of the grown problem allocates %.0f per run, want <= %d",
				tc.name, got, ceiling)
		}
	}
}
