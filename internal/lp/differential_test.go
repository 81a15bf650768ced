package lp

// Differential test corpus for the simplex core: on a seeded corpus of
// random LPs the cold solve reproduces its golden pin (golden_test.go), and
// the warm-started solve (SolveFrom) must agree with a cold solve on status
// and objective — including after bound rows are appended, the exact shape
// of branch-and-bound child problems. The dense and CSC-backed sparse
// matrix representations must additionally agree on the full solution
// vector on every instance. A disagreement here is how a warm-start or
// sparse-indexing bug would surface as a silently wrong MIP optimum, so
// this suite is the safety net under internal/mip's node solves.

import (
	"math"
	"strconv"
	"testing"

	"repro/internal/numeric"
	"repro/internal/rng"
)

// corpusSize is the number of seeded instances; the acceptance bar for the
// warm-start work is at least 200.
const corpusSize = 240

// diffObjEqual is the agreement criterion on objectives: AlmostEqual's
// TestTol scaled criterion, the repo-wide assertion tolerance.
func diffObjEqual(a, b float64) bool { return numeric.AlmostEqual(a, b) }

// corpusInstance derives the deterministic instance for one corpus index.
func corpusInstance(i int) *genLP {
	s := rng.NewReplicate(1, "lp-differential", i)
	n := 1 + s.Intn(7) // 1..7 variables
	m := s.Intn(10)    // 0..9 random rows (plus n box rows)
	return generateFeasibleLP(s, n, m)
}

// assertAgree fails unless the two solutions agree on status and, when
// both are optimal, on objective.
func assertAgree(t *testing.T, label string, a, b *Solution) {
	t.Helper()
	if a.Status != b.Status {
		t.Fatalf("%s: status %v != %v", label, a.Status, b.Status)
	}
	if a.Status == Optimal && !diffObjEqual(a.Objective, b.Objective) {
		t.Fatalf("%s: objective %.17g != %.17g (diff %g)",
			label, a.Objective, b.Objective, a.Objective-b.Objective)
	}
}

// assertAgreeX is assertAgree plus full solution-vector agreement, the
// criterion for the dense-vs-sparse pinning (the two representations pivot
// through identical matrices, so they must land on the same vertex).
func assertAgreeX(t *testing.T, label string, a, b *Solution) {
	t.Helper()
	assertAgree(t, label, a, b)
	if a.Status != Optimal {
		return
	}
	for v := range a.X {
		if !numeric.AlmostEqual(a.X[v], b.X[v]) {
			t.Fatalf("%s: x[%d] %.17g != %.17g", label, v, a.X[v], b.X[v])
		}
	}
}

// TestDifferentialColdRevisedVsTableau: the cold revised solve of every
// corpus instance reproduces its golden pin bit for bit and matches the
// optimum the dense tableau core recorded for it (golden_test.go), Solve
// returns exactly what SolveBasis returns, and the optimum carries a dual
// certificate Certify accepts — an oracle that shares no code with the
// simplex.
func TestDifferentialColdRevisedVsTableau(t *testing.T) {
	pins := golden(t)
	for i := 0; i < corpusSize; i++ {
		i := i
		t.Run(strconv.Itoa(i), func(t *testing.T) {
			t.Parallel()
			g := corpusInstance(i)
			rev, bs, err := SolveBasis(g.p, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if rev.Status != Optimal {
				t.Fatalf("corpus instance not optimal (%v); generator broken", rev.Status)
			}
			if bs == nil {
				t.Fatal("no basis from optimal cold solve")
			}
			checkPin(t, "cold", rev, pins.Corpus[i].Cold)
			checkRef(t, "cold vs tableau", rev, pins.Corpus[i].Tableau)
			sol, err := Solve(g.p, Options{})
			if err != nil {
				t.Fatal(err)
			}
			assertIdentical(t, "Solve vs SolveBasis", rev, sol)
			// The optimum must beat the known feasible point.
			want := g.feasibleValue()
			tol := 1e-6 * (1 + math.Abs(want))
			if rev.Objective < want-tol {
				t.Errorf("revised objective %g below feasible value %g", rev.Objective, want)
			}
			ds, _, err := SolveBasisWithDuals(g.p, Options{})
			if err != nil {
				t.Fatal(err)
			}
			checkPin(t, "with duals", &ds.Solution, pins.Corpus[i].Cold)
			if err := Certify(g.p, ds.X, ds.Duals, 1e-6); err != nil {
				t.Errorf("certificate rejected: %v", err)
			}
		})
	}
}

// TestDifferentialWarmVsColdAfterBoundRows: for every corpus instance,
// derive branch-and-bound style children by appending bound rows and
// check the warm-started solve against a cold solve of the same child —
// then chain a second bound row from the warm basis.
func TestDifferentialWarmVsColdAfterBoundRows(t *testing.T) {
	for i := 0; i < corpusSize; i++ {
		i := i
		t.Run(strconv.Itoa(i), func(t *testing.T) {
			t.Parallel()
			g := corpusInstance(i)
			parent, bs, err := SolveBasis(g.p, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if parent.Status != Optimal {
				t.Fatalf("parent status %v", parent.Status)
			}

			s := rng.NewReplicate(2, "lp-differential-branch", i)
			v := s.Intn(g.p.NumVars())
			val := parent.X[v]

			branches := []struct {
				name  string
				sense Sense
				rhs   float64
			}{
				{"down", LE, math.Floor(val)},
				{"up", GE, math.Ceil(val) + float64(s.Intn(2))}, // sometimes beyond the box: infeasible child
			}
			for _, br := range branches {
				child := g.p.Clone()
				child.AddConstraint([]Term{{Var: v, Coef: 1}}, br.sense, br.rhs)
				warm, wbs, err := SolveFrom(child, bs, Options{})
				if err != nil {
					t.Fatalf("%s: SolveFrom: %v", br.name, err)
				}
				cold, err := Solve(child, Options{})
				if err != nil {
					t.Fatalf("%s: Solve: %v", br.name, err)
				}
				assertAgree(t, br.name, cold, warm)

				if warm.Status != Optimal {
					continue
				}
				// Chain: tighten a second variable from the warm basis.
				v2 := s.Intn(g.p.NumVars())
				grandchild := child.Clone()
				grandchild.AddConstraint([]Term{{Var: v2, Coef: 1}}, LE, math.Floor(warm.X[v2]))
				warm2, _, err := SolveFrom(grandchild, wbs, Options{})
				if err != nil {
					t.Fatalf("%s/chain: SolveFrom: %v", br.name, err)
				}
				cold2, err := Solve(grandchild, Options{})
				if err != nil {
					t.Fatalf("%s/chain: Solve: %v", br.name, err)
				}
				assertAgree(t, br.name+"/chain", cold2, warm2)
			}
		})
	}
}

// TestDifferentialSparseVsDense: the CSC-backed revised core must reproduce
// the dense revised core across the whole corpus — status, objective AND the
// full solution vector — both cold and warm-started after a bound row, the
// exact code path branch-and-bound nodes take with the sparse matrix on.
func TestDifferentialSparseVsDense(t *testing.T) {
	for i := 0; i < corpusSize; i++ {
		i := i
		t.Run(strconv.Itoa(i), func(t *testing.T) {
			t.Parallel()
			g := corpusInstance(i)
			dense, dbs, err := SolveBasis(g.p, Options{Sparse: SparseOff})
			if err != nil {
				t.Fatal(err)
			}
			sparse, sbs, err := SolveBasis(g.p, Options{Sparse: SparseOn})
			if err != nil {
				t.Fatal(err)
			}
			assertAgreeX(t, "cold", dense, sparse)
			if dense.Status != Optimal {
				return
			}

			// Warm-started bound-row child under both representations.
			s := rng.NewReplicate(3, "lp-differential-sparse", i)
			v := s.Intn(g.p.NumVars())
			child := g.p.Clone()
			child.AddConstraint([]Term{{Var: v, Coef: 1}}, LE, math.Floor(dense.X[v]))
			wd, _, err := SolveFrom(child, dbs, Options{Sparse: SparseOff})
			if err != nil {
				t.Fatalf("warm dense: %v", err)
			}
			ws, _, err := SolveFrom(child, sbs, Options{Sparse: SparseOn})
			if err != nil {
				t.Fatalf("warm sparse: %v", err)
			}
			assertAgreeX(t, "warm", wd, ws)
		})
	}
}

// TestDifferentialBoundsVsRows: on a corpus of randomly boxed LPs, the
// bounded-variable method (over the dense and the sparse matrix) must
// agree with the same problem after ExpandBounds rewrote
// every box as explicit constraint rows — status, objective AND the full
// solution vector. It then tightens one variable's upper bound, the exact
// move of a row-free branch-and-bound child, and checks the warm-started
// bounded solves against a cold solve of the rows-expanded child. This is
// the equivalence proof that implicit boxes change the arithmetic, not the
// answer.
func TestDifferentialBoundsVsRows(t *testing.T) {
	for i := 0; i < corpusSize; i++ {
		i := i
		t.Run(strconv.Itoa(i), func(t *testing.T) {
			t.Parallel()
			s := rng.NewReplicate(5, "lp-differential-bounds", i)
			n := 1 + s.Intn(7) // 1..7 variables
			m := s.Intn(10)    // 0..9 random rows (boxes come as bounds)
			g := generateBoundedLP(s, n, m)
			rows := ExpandBounds(g.p)

			ref, err := Solve(rows, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if ref.Status != Optimal {
				t.Fatalf("rows-expanded instance not optimal (%v); generator broken", ref.Status)
			}
			dense, dbs, err := SolveBasis(g.p, Options{Sparse: SparseOff})
			if err != nil {
				t.Fatal(err)
			}
			sparse, sbs, err := SolveBasis(g.p, Options{Sparse: SparseOn})
			if err != nil {
				t.Fatal(err)
			}
			assertAgreeX(t, "dense", ref, dense)
			assertAgreeX(t, "sparse", ref, sparse)

			want := g.feasibleValue()
			tol := 1e-6 * (1 + math.Abs(want))
			if dense.Objective < want-tol {
				t.Errorf("objective %g below feasible value %g", dense.Objective, want)
			}

			// Bound-tightened child: clamp one variable's upper bound to
			// floor(x*_v) (at least lo, possibly a zero-width box) and
			// re-optimise warm from the parent basis — same basis dimension,
			// no appended rows — against a cold solve of the rows-expanded
			// child.
			v := s.Intn(n)
			child := g.p.Clone()
			lo, _ := child.Bounds(v)
			child.SetBounds(v, lo, math.Max(lo, math.Floor(dense.X[v])))
			refChild, err := Solve(ExpandBounds(child), Options{})
			if err != nil {
				t.Fatal(err)
			}
			wd, _, err := SolveFrom(child, dbs, Options{Sparse: SparseOff})
			if err != nil {
				t.Fatalf("warm dense: %v", err)
			}
			ws, _, err := SolveFrom(child, sbs, Options{Sparse: SparseOn})
			if err != nil {
				t.Fatalf("warm sparse: %v", err)
			}
			assertAgreeX(t, "child-dense", refChild, wd)
			assertAgreeX(t, "child-sparse", refChild, ws)
		})
	}
}

// TestDifferentialStaircase: a smaller corpus of DSCT-EA-FR-shaped staircase
// instances big enough to cross the density auto-switch, so the sparse code
// paths (including periodic refactorisation) are exercised at realistic
// scale by the race-enabled gate. Dense and auto (=sparse here) must
// agree, cold and after a warm-started bound row.
func TestDifferentialStaircase(t *testing.T) {
	const staircaseCorpusSize = 24
	for i := 0; i < staircaseCorpusSize; i++ {
		i := i
		t.Run(strconv.Itoa(i), func(t *testing.T) {
			t.Parallel()
			s := rng.NewReplicate(4, "lp-differential-staircase", i)
			nTasks := 20 + s.Intn(41) // 20..60 tasks
			mMach := 2 + s.Intn(3)    // 2..4 machines
			g := generateStaircaseLP(s, nTasks, mMach)

			m := g.p.NumConstraints()
			n := g.p.NumVars()
			if !autoSparse(m, n, dedupRows(g.p).nnz()) {
				t.Fatalf("staircase %dx%d not auto-sparse; corpus misconfigured", nTasks, mMach)
			}

			dense, dbs, err := SolveBasis(g.p, Options{Sparse: SparseOff})
			if err != nil {
				t.Fatal(err)
			}
			auto, autoBS, err := SolveBasis(g.p, Options{})
			if err != nil {
				t.Fatal(err)
			}
			assertAgreeX(t, "dense-vs-auto", dense, auto)
			if auto.Status != Optimal {
				t.Fatalf("staircase instance not optimal (%v); generator broken", auto.Status)
			}

			// Warm-started bound-row child, dense basis vs sparse basis.
			v := s.Intn(n)
			child := g.p.Clone()
			child.AddConstraint([]Term{{Var: v, Coef: 1}}, LE, math.Floor(auto.X[v]))
			wd, _, err := SolveFrom(child, dbs, Options{Sparse: SparseOff})
			if err != nil {
				t.Fatalf("warm dense: %v", err)
			}
			ws, _, err := SolveFrom(child, autoBS, Options{})
			if err != nil {
				t.Fatalf("warm auto: %v", err)
			}
			assertAgreeX(t, "warm", wd, ws)
		})
	}
}
