package lp

// Golden pinning of the LU basis kernel (see golden_test.go): cold,
// warm-started from a bounds-tightened child (the row-free branch-and-bound
// move, where the LU child adopts the parent's frozen factors), chained to
// a grandchild, and warm-started after an appended row (where the LU kernel
// must detect the dimension change and refactorise), every solve lands on
// its pinned vertex and on the optimum the explicit dense B⁻¹ kernel
// recorded for the same problem. A disagreement here is how an FTRAN/BTRAN
// or eta-file bug would surface as a silently wrong optimum.

import (
	"strconv"
	"testing"
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
// instead of tightening a box changes the basis dimension, so the LU
// kernel cannot adopt the parent's factor and must flag the rebuild; the
// warm solve still reproduces its golden pin and the explicit-B⁻¹
// kernel's recorded optimum.
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
			if !c.row.FactorRebuilt {
				t.Error("LU warm start after an appended row did not report FactorRebuilt")
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
// instance: false cold and for an adopted same-shape inherit, true when a
// row append changed the basis dimension.
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
	if !rowWarm.FactorRebuilt {
		t.Error("warm start after a row append did not report FactorRebuilt")
	}
}
