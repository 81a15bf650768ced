package lp

// Golden pinning of the LU basis kernel (see golden_test.go): cold,
// warm-started from a bounds-tightened child (the row-free branch-and-bound
// move, where the LU child adopts the parent's frozen factors), chained to
// a grandchild, and warm-started after an appended row (where the LU child
// extends the parent's factors across the new row), every solve lands on
// its pinned vertex and on the optimum the explicit dense B⁻¹ kernel
// recorded for the same problem. A disagreement here is how an FTRAN/BTRAN
// or eta-file bug would surface as a silently wrong optimum.

import (
	"strconv"
	"testing"

	"repro/internal/rng"
)

// TestDifferentialLUVsBinv: the LU kernel's warm chain on every corpus
// instance — a bounds-tightened child adopting the cold solve's frozen
// factors, and a grandchild adopting the child's factors with their eta
// file (the state a deep branch-and-bound dive produces) — reproduces its
// golden pins bit for bit and matches the explicit-B⁻¹ kernel's recorded
// optima on the same problems.
func TestDifferentialLUVsBinv(t *testing.T) {
	pins := golden(t)
	for i := 0; i < corpusSize; i++ {
		i := i
		t.Run(strconv.Itoa(i), func(t *testing.T) {
			t.Parallel()
			c, err := solveCorpusChain(i)
			if err != nil {
				t.Fatal(err)
			}
			want := pins.Corpus[i]
			checkPin(t, "cold", c.cold, want.Cold)
			checkPin(t, "child", c.child, want.Child)
			checkPin(t, "grandchild", c.grand, want.Grand)
			checkRef(t, "cold vs B⁻¹", c.cold, want.Binv[0])
			checkRef(t, "child vs B⁻¹", c.child, want.Binv[1])
			checkRef(t, "grandchild vs B⁻¹", c.grand, want.Binv[2])
		})
	}
}

// TestDifferentialLUVsBinvAppendedRows: a child that appends a bound row
// instead of tightening a box changes the basis dimension; the LU kernel
// adopts the parent's factor extended across the new row, without a
// rebuild, and the warm solve reproduces its golden pin and the
// explicit-B⁻¹ kernel's recorded optimum.
func TestDifferentialLUVsBinvAppendedRows(t *testing.T) {
	pins := golden(t)
	for i := 0; i < corpusSize; i++ {
		i := i
		t.Run(strconv.Itoa(i), func(t *testing.T) {
			t.Parallel()
			c, err := solveCorpusChain(i)
			if err != nil {
				t.Fatal(err)
			}
			checkPin(t, "row-child", c.row, pins.Corpus[i].Row)
			checkRef(t, "row-child vs B⁻¹", c.row, pins.Corpus[i].Binv[3])
			if c.row.FactorRebuilt {
				t.Error("LU warm start after an appended row refactorised instead of extending the parent's factor")
			}
		})
	}
}

// TestDifferentialLUVsBinvStaircase: the same pins at realistic
// DSCT-EA-FR scale, where the staircase bases make the sparse factors pay
// off and refactorisation actually triggers.
func TestDifferentialLUVsBinvStaircase(t *testing.T) {
	pins := golden(t)
	for i := 0; i < staircasePinCount; i++ {
		i := i
		t.Run(strconv.Itoa(i), func(t *testing.T) {
			t.Parallel()
			c, err := solveStaircaseChain(i)
			if err != nil {
				t.Fatal(err)
			}
			want := pins.Staircase[i]
			checkPin(t, "cold", c.cold, want.Cold)
			checkPin(t, "child", c.child, want.Child)
			checkRef(t, "cold vs B⁻¹", c.cold, want.Binv[0])
			checkRef(t, "child vs B⁻¹", c.child, want.Binv[1])
		})
	}
}

// TestFactorRebuiltSemantics pins the FactorRebuilt flag on a fixed
// instance: false cold, for an adopted same-shape inherit and for a row
// append, whose child extends the parent's factor.
func TestFactorRebuiltSemantics(t *testing.T) {
	p := degenerateStaircaseLP(12, 2)
	cold, bs, err := SolveBasis(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Status != Optimal {
		t.Fatalf("status %v", cold.Status)
	}
	if cold.FactorRebuilt {
		t.Error("cold solve reported FactorRebuilt")
	}

	child := p.Overlay()
	child.SetBounds(0, 0, 0.5)
	adopt, _, err := SolveFrom(child, bs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if adopt.FactorRebuilt {
		t.Error("same-shape inherit reported FactorRebuilt")
	}

	rowChild := p.Overlay()
	rowChild.AddConstraint([]Term{{Var: 0, Coef: 1}}, LE, 0.5)
	rowWarm, _, err := SolveFrom(rowChild, bs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rowWarm.FactorRebuilt {
		t.Error("warm start after a row append reported FactorRebuilt")
	}
}

// scaleKnapsack builds the knapsack of mip's warm tests (GUB pairs over
// boxed binaries' relaxations) with a capacity row over the even
// variables at right-hand side 0, and returns it with that row's index.
// All its variables rest at zero, so the row's q_i is 0.
func scaleKnapsack() (*Problem, int) {
	s := rng.New(3, "lp-scale-knapsack")
	const groups = 5
	p := NewProblem(2 * groups)
	var capTerms []Term
	for v := 0; v < 2*groups; v++ {
		p.SetObjCoef(v, s.Uniform(1, 20))
		p.SetBounds(v, 0, 1)
		if v%2 == 0 {
			capTerms = append(capTerms, Term{Var: v, Coef: s.Uniform(1, 10)})
		}
	}
	for g := 0; g < groups; g++ {
		p.AddConstraint([]Term{{Var: 2 * g, Coef: 1}, {Var: 2*g + 1, Coef: 1}}, LE, 1)
	}
	return p, p.AddConstraint(capTerms, LE, 0)
}

// TestAdoptionRefusesMovedScale: AppendTerms of a coefficient larger than
// a row's largest moves the row's equilibration scale, and so the basis
// matrix the parent's factor was computed for. When the row's q_i is 0 the
// residual check cannot see that, so the warm start must refuse the
// factor on the recorded scales (FactorRebuilt) and still match a cold
// solve, on every entry point. The same append at a coefficient inside
// the row's range leaves the scale alone and adopts.
func TestAdoptionRefusesMovedScale(t *testing.T) {
	for _, tc := range []struct {
		name    string
		coef    float64
		rebuilt bool
	}{
		{"scale moved", 40, true},
		{"scale kept", 0.5, false},
	} {
		p, capRow := scaleKnapsack()
		sol, bs, err := SolveBasis(p, Options{})
		if err != nil || sol.Status != Optimal {
			t.Fatalf("%s: parent solve: %v %v", tc.name, sol.Status, err)
		}
		v := p.AddVariables(1)
		p.SetObjCoef(v, 9)
		p.SetBounds(v, 0, 1)
		p.AppendTerms(capRow, []Term{{Var: v, Coef: tc.coef}})
		p.AddConstraint([]Term{{Var: v, Coef: 1}, {Var: 0, Coef: 1}}, LE, 1)
		cold, _, err := SolveBasis(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		warm, _, err := SolveFrom(p, bs, Options{})
		if err != nil {
			t.Fatalf("%s: SolveFrom: %v", tc.name, err)
		}
		ws := NewWorkspace()
		wsSol, err := ws.SolveFrom(p, bs, Options{})
		if err != nil {
			t.Fatalf("%s: Workspace.SolveFrom: %v", tc.name, err)
		}
		wsSol = wsSol.clone()
		wsBasis, _, err := ws.SolveBasisFrom(p, bs, Options{})
		if err != nil {
			t.Fatalf("%s: Workspace.SolveBasisFrom: %v", tc.name, err)
		}
		for _, got := range []struct {
			entry string
			sol   *Solution
		}{{"SolveFrom", warm}, {"Workspace.SolveFrom", wsSol}, {"Workspace.SolveBasisFrom", wsBasis}} {
			if got.sol.FactorRebuilt != tc.rebuilt {
				t.Errorf("%s: %s FactorRebuilt = %v, want %v", tc.name, got.entry, got.sol.FactorRebuilt, tc.rebuilt)
			}
			assertSameSolution(t, tc.name+": "+got.entry+" vs cold", cold, got.sol)
		}
	}
}
