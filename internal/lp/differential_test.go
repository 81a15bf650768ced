package lp

// Differential test corpus for the simplex core: on a seeded corpus of
// random LPs the cold solve reproduces its golden pin (golden_test.go), and
// the warm-started solve (SolveFrom) must agree with a cold solve on status
// and objective — including after bound rows are appended, the exact shape
// of branch-and-bound child problems. A disagreement here is how a
// warm-start or sparse-indexing bug would surface as a silently wrong MIP
// optimum, so this suite is the safety net under internal/mip's node
// solves.

import (
	"fmt"
	"math"
	"slices"
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
// criterion for pairs of solves that must land on the same vertex.
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

// pricingXTol is the agreement criterion for solves that pivot in
// different orders: the corpus optima are unique (generic random data),
// so every entering rule reaches the same vertex, but through different
// arithmetic — bit-level TestTol agreement is not meaningful.
const pricingXTol = 1e-8

// assertAgreeXTol fails unless the two solutions agree on status and,
// when optimal, on objective and the full solution vector within
// pricingXTol (scaled).
func assertAgreeXTol(t *testing.T, label string, a, b *Solution) {
	t.Helper()
	assertAgreeXWithin(t, label, a, b, pricingXTol)
}

// assertAgreeXWithin is the underlying comparison at an explicit scaled
// tolerance.
func assertAgreeXWithin(t *testing.T, label string, a, b *Solution, tol float64) {
	t.Helper()
	if a.Status != b.Status {
		t.Fatalf("%s: status %v != %v", label, a.Status, b.Status)
	}
	if a.Status != Optimal {
		return
	}
	if !numeric.Close(a.Objective, b.Objective, tol) {
		t.Fatalf("%s: objective %.17g != %.17g (diff %g)",
			label, a.Objective, b.Objective, a.Objective-b.Objective)
	}
	for v := range a.X {
		if !numeric.Close(a.X[v], b.X[v], tol) {
			t.Fatalf("%s: x[%d] %.17g != %.17g", label, v, a.X[v], b.X[v])
		}
	}
}

// TestDifferentialPricing: the two entering rules of the simplex core,
// Dantzig's and the Bland fallback, must reach the same optimum. On every
// corpus instance a solve that runs Bland's rule from its first pivot
// must reproduce the Dantzig Solve — status, objective and full X — and
// its basis must warm-start two children to their cold optima, both under
// the default rules and with Bland's leaving rule forced on the dual
// simplex: a bound-row child, whose new logical leaves below its lower
// bound, and a child with the same upper bound set on the variable's box,
// where a basic value leaves above its upper bound.
func TestDifferentialPricing(t *testing.T) {
	for i := 0; i < corpusSize; i++ {
		i := i
		t.Run(strconv.Itoa(i), func(t *testing.T) {
			t.Parallel()
			g := corpusInstance(i)
			ref, err := Solve(g.p, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if ref.Status != Optimal {
				t.Fatalf("dantzig reference not optimal (%v); generator broken", ref.Status)
			}
			bland := newRev(g.p, Options{})
			bland.blandMode = true
			sol, bs, err := bland.solveCold(g.p)
			if err != nil {
				t.Fatalf("bland: %v", err)
			}
			assertAgreeXTol(t, "bland", ref, sol)

			s := rng.NewReplicate(6, "lp-differential-pricing", i)
			v := s.Intn(g.p.NumVars())
			rowChild := g.p.Clone()
			rowChild.AddConstraint([]Term{{Var: v, Coef: 1}}, LE, math.Floor(ref.X[v]))
			boxChild := g.p.Overlay()
			boxChild.SetBounds(v, 0, math.Floor(ref.X[v]))
			for _, c := range []struct {
				name string
				p    *Problem
			}{{"row", rowChild}, {"box", boxChild}} {
				refChild, err := Solve(c.p, Options{})
				if err != nil {
					t.Fatal(err)
				}
				warm, _, err := SolveFrom(c.p, bs, Options{})
				if err != nil {
					t.Fatalf("bland/%s/warm: %v", c.name, err)
				}
				assertAgreeXTol(t, "bland/"+c.name+"/warm", refChild, warm)

				if err := checkBasisFit(c.p, bs); err != nil {
					t.Fatal(err)
				}
				wb := newRev(c.p, Options{})
				wb.blandMode = true
				warmBland, _, err := wb.solveFrom(c.p, bs)
				if err != nil {
					t.Fatalf("bland/%s/warm-bland: %v", c.name, err)
				}
				assertAgreeXTol(t, "bland/"+c.name+"/warm-bland", refChild, warmBland)
			}
		})
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

// TestDifferentialSparseVsDense: every pass of the simplex core walks the
// CSR/CSC pair, and each must compute exactly what the same pass computed
// over the retired dense row-major matrix. On every corpus instance, at
// the optimal basis of a cold solve, the column gather, q update, pricing
// and pivot row kernels are replayed against a dense copy of the oriented,
// equilibrated matrix built here from the Problem's rows, with the dense
// pass's accumulation order.
func TestDifferentialSparseVsDense(t *testing.T) {
	for i := 0; i < corpusSize; i++ {
		i := i
		t.Run(strconv.Itoa(i), func(t *testing.T) {
			t.Parallel()
			g := corpusInstance(i)
			tt, sol, _, err := solveBasisRev(g.p, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if sol.Status != Optimal {
				t.Fatalf("corpus instance not optimal (%v); generator broken", sol.Status)
			}
			m, rw := tt.m, tt.rw
			a := denseCanonical(t, tt, g.p)
			// col returns dense entry (r, j) of the full column space,
			// artificials included.
			col := func(r, j int) float64 {
				if j < rw {
					return a[r*rw+j]
				}
				if j-rw == r {
					return tt.artSign[r]
				}
				return 0
			}
			same := func(what string, got, want float64) {
				t.Helper()
				//lint:ignore floatcmp the sparse walks must reproduce the dense arithmetic exactly
				if got != want {
					t.Fatalf("%s: sparse %.17g, dense %.17g", what, got, want)
				}
			}

			q0 := append([]float64(nil), tt.q...)
			dcol := make([]float64, m)
			want := make([]float64, m)
			for j := 0; j < tt.width; j++ {
				// rev.ftran gathers the column over its rows alone: w must
				// be the dense FTRAN of the dense column, and rhs +0 again.
				for r := range dcol {
					dcol[r] = col(r, j)
				}
				ftranDense(tt.lu, dcol, want, make([]float64, m))
				tt.ftran(j)
				for r := 0; r < m; r++ {
					same(fmt.Sprintf("rhs after ftran(%d)[%d]", j, r), tt.rhs[r], 0)
					if want[r] != 0 {
						same(fmt.Sprintf("ftran(%d)[%d]", j, r), tt.w[r], want[r])
					} else {
						same(fmt.Sprintf("ftran(%d)[%d]", j, r), tt.w[r], 0)
					}
				}
				if nz := nonzeros(want); !slices.Equal(tt.wNz, nz) {
					t.Fatalf("ftran(%d): nonzero list %v, dense %v", j, tt.wNz, nz)
				}
				tt.addColTimes(j, 0.5)
				for r := 0; r < m; r++ {
					want := q0[r]
					if v := col(r, j); v != 0 {
						want += 0.5 * v
					}
					same(fmt.Sprintf("addColTimes(%d)[%d]", j, r), tt.q[r], want)
				}
				copy(tt.q, q0)
			}

			c := make([]float64, tt.width)
			for j := range c {
				c[j] = float64((7*j)%11) - 5
			}
			tt.prices(c, false)
			for j := 0; j < rw; j++ {
				want := c[j]
				for r := 0; r < m; r++ {
					if v := a[r*rw+j]; v != 0 && tt.y[r] != 0 {
						want -= tt.y[r] * v
					}
				}
				if tt.inBasis[j] {
					want = 0
				}
				same(fmt.Sprintf("prices d[%d]", j), tt.d[j], want)
			}

			for pr := 0; pr < m; pr++ {
				tt.pivotRow(pr)
				for j := 0; j < rw; j++ {
					var want float64
					for k := 0; k < m; k++ {
						if v := a[k*rw+j]; v != 0 && tt.rho[k] != 0 {
							want += tt.rho[k] * v
						}
					}
					same(fmt.Sprintf("pivotRow(%d)[%d]", pr, j), tt.alpha[j], want)
				}
			}
		})
	}
}

// denseCanonical rebuilds the solver's oriented, equilibrated constraint
// matrix densely (row-major, structural then logical columns) from p's
// rows: repeated Terms summed in order, >= rows negated, each row scaled
// by the reciprocal of its largest magnitude. It fails unless the scales
// match the ones the solver recorded.
func denseCanonical(t *testing.T, tt *rev, p *Problem) []float64 {
	t.Helper()
	m, n, rw := tt.m, tt.n, tt.rw
	a := make([]float64, m*rw)
	for r := 0; r < m; r++ {
		row := a[r*rw : r*rw+n]
		terms, sense, _ := p.Constraint(r)
		for _, tm := range terms {
			row[tm.Var] += tm.Coef
		}
		scale := 0.0
		for v := range row {
			if sense == GE {
				row[v] = -row[v]
			}
			scale = math.Max(scale, math.Abs(row[v]))
		}
		if scale > 0 {
			inv := 1 / scale
			for v := range row {
				row[v] *= inv
			}
		} else {
			scale = 1
		}
		//lint:ignore floatcmp both sides take the same maximum
		if scale != tt.rowScale[r] {
			t.Fatalf("row %d: scale %g, solver recorded %g", r, scale, tt.rowScale[r])
		}
		a[r*rw+n+r] = 1 // logical
	}
	return a
}

// TestDifferentialBoundsVsRows: on a corpus of randomly boxed LPs, the
// bounded-variable method must agree with the same problem after
// expandBounds rewrote
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
			rows := expandBounds(g.p)

			ref, err := Solve(rows, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if ref.Status != Optimal {
				t.Fatalf("rows-expanded instance not optimal (%v); generator broken", ref.Status)
			}
			sol, bs, err := SolveBasis(g.p, Options{})
			if err != nil {
				t.Fatal(err)
			}
			assertAgreeX(t, "bounds", ref, sol)

			want := g.feasibleValue()
			tol := 1e-6 * (1 + math.Abs(want))
			if sol.Objective < want-tol {
				t.Errorf("objective %g below feasible value %g", sol.Objective, want)
			}

			// Bound-tightened child: clamp one variable's upper bound to
			// floor(x*_v) (at least lo, possibly a zero-width box) and
			// re-optimise warm from the parent basis — same basis dimension,
			// no appended rows — against a cold solve of the rows-expanded
			// child.
			v := s.Intn(n)
			child := g.p.Clone()
			lo, _ := child.Bounds(v)
			child.SetBounds(v, lo, math.Max(lo, math.Floor(sol.X[v])))
			refChild, err := Solve(expandBounds(child), Options{})
			if err != nil {
				t.Fatal(err)
			}
			warm, _, err := SolveFrom(child, bs, Options{})
			if err != nil {
				t.Fatalf("warm: %v", err)
			}
			assertAgreeX(t, "child", refChild, warm)
		})
	}
}

// TestDifferentialStaircase: a smaller corpus of DSCT-EA-FR-shaped staircase
// instances, so the sparse code paths (including periodic refactorisation)
// are exercised at realistic scale by the race-enabled gate. The cold
// optimum must beat the generator's feasible point, and a warm-started
// bound-row child must agree with a cold solve of the same child.
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

			sol, bs, err := SolveBasis(g.p, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if sol.Status != Optimal {
				t.Fatalf("staircase instance not optimal (%v); generator broken", sol.Status)
			}
			want := g.feasibleValue()
			if sol.Objective < want-1e-6*(1+math.Abs(want)) {
				t.Errorf("objective %g below feasible value %g", sol.Objective, want)
			}

			// Warm-started bound-row child against a cold solve of it.
			v := s.Intn(g.p.NumVars())
			child := g.p.Clone()
			child.AddConstraint([]Term{{Var: v, Coef: 1}}, LE, math.Floor(sol.X[v]))
			warm, _, err := SolveFrom(child, bs, Options{})
			if err != nil {
				t.Fatalf("warm: %v", err)
			}
			cold, err := Solve(child, Options{})
			if err != nil {
				t.Fatalf("cold: %v", err)
			}
			assertAgree(t, "warm", cold, warm)
		})
	}
}
