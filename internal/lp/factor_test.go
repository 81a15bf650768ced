package lp

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/rng"
)

// Unit tests of the sparse LU kernel in isolation: factorisation of basis
// matrices given in CSC form, FTRAN/BTRAN against a dense reference,
// eta-file updates against re-factorisation, copy-on-write freezing,
// singularity detection, determinism — plus the pinned resolution of the
// factor-related Options defaults.

// denseFromCSC expands a CSC basis matrix into B[row][position].
func denseFromCSC(m int, colPtr, rowIdx []int, vals []float64) [][]float64 {
	B := make([][]float64, m)
	for i := range B {
		B[i] = make([]float64, m)
	}
	for j := 0; j < m; j++ {
		for k := colPtr[j]; k < colPtr[j+1]; k++ {
			B[rowIdx[k]][j] += vals[k]
		}
	}
	return B
}

// cscFromDense is the inverse of denseFromCSC (exact zeros are dropped).
func cscFromDense(B [][]float64) (colPtr, rowIdx []int, vals []float64) {
	m := len(B)
	colPtr = make([]int, m+1)
	for j := 0; j < m; j++ {
		for i := 0; i < m; i++ {
			if B[i][j] != 0 {
				rowIdx = append(rowIdx, i)
				vals = append(vals, B[i][j])
			}
		}
		colPtr[j+1] = len(rowIdx)
	}
	return colPtr, rowIdx, vals
}

// checkFactorAgainstDense verifies ftran and btran of f against the dense
// matrix B it claims to factorise: B·ftran(rhs) must reproduce rhs and
// btran(c)ᵀ·B must reproduce c, for unit vectors and a dense random vector.
func checkFactorAgainstDense(t *testing.T, f *luFactor, B [][]float64, s *rng.Source, relTol float64) {
	t.Helper()
	m := len(B)
	work := make([]float64, m)
	cw := make([]float64, m)
	out := make([]float64, m)
	scale := 1.0
	for i := range B {
		for j := range B[i] {
			if a := math.Abs(B[i][j]); a > scale {
				scale = a
			}
		}
	}
	tol := relTol * scale

	rhss := make([][]float64, 0, m+1)
	for i := 0; i < m; i++ {
		e := make([]float64, m)
		e[i] = 1
		rhss = append(rhss, e)
	}
	r := make([]float64, m)
	for i := range r {
		r[i] = s.Uniform(-3, 3)
	}
	rhss = append(rhss, r)

	for _, rhs := range rhss {
		f.ftran(rhs, out, work)
		for i := 0; i < m; i++ {
			var bx float64
			for j := 0; j < m; j++ {
				bx += B[i][j] * out[j]
			}
			if math.Abs(bx-rhs[i]) > tol {
				t.Fatalf("ftran: (B·x)[%d] = %g, want %g (err %g)", i, bx, rhs[i], bx-rhs[i])
			}
		}
		f.btran(rhs, out, work, cw)
		for j := 0; j < m; j++ {
			var yb float64
			for i := 0; i < m; i++ {
				yb += out[i] * B[i][j]
			}
			if math.Abs(yb-rhs[j]) > tol {
				t.Fatalf("btran: (yᵀB)[%d] = %g, want %g (err %g)", j, yb, rhs[j], yb-rhs[j])
			}
		}
	}
}

// randomSparseBasis builds a random nonsingular m×m matrix: a permuted
// dominant diagonal plus a sprinkling of off-diagonal entries.
func randomSparseBasis(s *rng.Source, m int, extra int) [][]float64 {
	B := make([][]float64, m)
	for i := range B {
		B[i] = make([]float64, m)
	}
	perm := s.Perm(m)
	for j := 0; j < m; j++ {
		B[perm[j]][j] = s.Uniform(2, 4) * float64(1-2*s.Intn(2))
	}
	for k := 0; k < extra; k++ {
		B[s.Intn(m)][s.Intn(m)] += s.Uniform(-1, 1)
	}
	return B
}

func TestFactorizeBasisIdentityAndPermutation(t *testing.T) {
	s := rng.New(11, "lp-factor-perm")
	for _, m := range []int{1, 2, 5, 17} {
		B := make([][]float64, m)
		for i := range B {
			B[i] = make([]float64, m)
		}
		perm := s.Perm(m)
		for j := 0; j < m; j++ {
			B[perm[j]][j] = 1
		}
		colPtr, rowIdx, vals := cscFromDense(B)
		f, err := factorizeBasis(m, colPtr, rowIdx, vals)
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		// A permutation matrix factorises with empty L and diagonal U.
		if len(f.lIdx) != 0 || len(f.uIdx) != 0 {
			t.Fatalf("m=%d: permutation produced fill: nnz(L)=%d nnz(U offdiag)=%d",
				m, len(f.lIdx), len(f.uIdx))
		}
		checkFactorAgainstDense(t, f, B, s, 1e-9)
	}
}

func TestFactorizeBasisRandomSparse(t *testing.T) {
	s := rng.New(12, "lp-factor-rand")
	for trial := 0; trial < 40; trial++ {
		m := 1 + s.Intn(30)
		B := randomSparseBasis(s, m, s.Intn(3*m+1))
		colPtr, rowIdx, vals := cscFromDense(B)
		f, err := factorizeBasis(m, colPtr, rowIdx, vals)
		if err != nil {
			t.Fatalf("trial %d (m=%d): %v", trial, m, err)
		}
		checkFactorAgainstDense(t, f, B, s, 1e-9)
	}
}

func TestFactorizeBasisDense(t *testing.T) {
	// A fully dense matrix exercises the threshold-pivoting path where no
	// fill-free pivot exists.
	s := rng.New(13, "lp-factor-dense")
	m := 12
	B := make([][]float64, m)
	for i := range B {
		B[i] = make([]float64, m)
		for j := range B[i] {
			B[i][j] = s.Uniform(-1, 1)
		}
		B[i][i] += 4 // diagonally dominant, hence nonsingular
	}
	colPtr, rowIdx, vals := cscFromDense(B)
	f, err := factorizeBasis(m, colPtr, rowIdx, vals)
	if err != nil {
		t.Fatal(err)
	}
	checkFactorAgainstDense(t, f, B, s, 1e-9)
}

func TestFactorizeBasisEmpty(t *testing.T) {
	f, err := factorizeBasis(0, []int{0}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.m != 0 || f.nEtas() != 0 {
		t.Fatalf("empty factor: m=%d etas=%d", f.m, f.nEtas())
	}
	f.ftran(nil, nil, nil) // must be a no-op, not a panic
	f.btran(nil, nil, nil, nil)
}

func TestFactorizeBasisSingular(t *testing.T) {
	cases := []struct {
		name string
		B    [][]float64
	}{
		{"zero-column", [][]float64{{1, 0}, {0, 0}}},
		{"duplicate-columns", [][]float64{{1, 1}, {2, 2}}},
		{"tiny-pivot", [][]float64{{1e-13}}},
		{"rank-deficient-3x3", [][]float64{{1, 2, 3}, {2, 4, 6}, {1, 0, 1}}},
	}
	for _, tc := range cases {
		colPtr, rowIdx, vals := cscFromDense(tc.B)
		if _, err := factorizeBasis(len(tc.B), colPtr, rowIdx, vals); err != errSingular {
			t.Errorf("%s: err = %v, want errSingular", tc.name, err)
		}
	}
}

func TestFactorizeBasisDeterministic(t *testing.T) {
	s := rng.New(14, "lp-factor-det")
	for trial := 0; trial < 10; trial++ {
		m := 5 + s.Intn(20)
		B := randomSparseBasis(s, m, 2*m)
		colPtr, rowIdx, vals := cscFromDense(B)
		f1, err1 := factorizeBasis(m, colPtr, rowIdx, vals)
		f2, err2 := factorizeBasis(m, colPtr, rowIdx, vals)
		if err1 != nil || err2 != nil {
			t.Fatalf("trial %d: %v, %v", trial, err1, err2)
		}
		if !reflect.DeepEqual(f1, f2) {
			t.Fatalf("trial %d: repeated factorisation differs", trial)
		}
	}
}

func TestFactorEtaUpdates(t *testing.T) {
	// Replace basis columns one at a time through the eta file and verify
	// the updated factor tracks the updated dense matrix exactly as a fresh
	// factorisation would.
	s := rng.New(15, "lp-factor-eta")
	for trial := 0; trial < 10; trial++ {
		m := 5 + s.Intn(15)
		B := randomSparseBasis(s, m, 2*m)
		colPtr, rowIdx, vals := cscFromDense(B)
		f, err := factorizeBasis(m, colPtr, rowIdx, vals)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		work := make([]float64, m)
		w := make([]float64, m)
		for upd := 0; upd < 6; upd++ {
			r := s.Intn(m)
			// New column: a rescaling of the old column plus a small sparse
			// perturbation, so w = B⁻¹a ≈ α·e_r has a healthy diagonal and
			// the update chain stays well conditioned by construction.
			alpha := s.Uniform(1, 2)
			a := make([]float64, m)
			for i := range a {
				a[i] = alpha * B[i][r]
				if s.Intn(4) == 0 {
					a[i] += s.Uniform(-0.3, 0.3)
				}
			}
			f.ftran(a, w, work)
			if math.Abs(w[r]) < 0.5 {
				continue // perturbation unluckily large; skip this update
			}
			f.appendEta(r, w)
			for i := 0; i < m; i++ {
				B[i][r] = a[i]
			}
		}
		if f.nEtas() == 0 {
			t.Fatalf("trial %d: no eta updates exercised", trial)
		}
		// A chain of column replacements can condition the basis worse than
		// any single factorisation; allow the eta path proportional slack.
		checkFactorAgainstDense(t, f, B, s, 1e-6)
	}
}

func TestFactorFreezeCopyOnWrite(t *testing.T) {
	s := rng.New(16, "lp-factor-freeze")
	m := 10
	B := randomSparseBasis(s, m, 2*m)
	colPtr, rowIdx, vals := cscFromDense(B)
	f, err := factorizeBasis(m, colPtr, rowIdx, vals)
	if err != nil {
		t.Fatal(err)
	}
	work := make([]float64, m)
	w := make([]float64, m)
	e := make([]float64, m)
	e[0] = 1
	f.ftran(e, w, work)
	f.appendEta(2, w)

	frozen := f.freeze()
	if frozen.nEtas() != 1 {
		t.Fatalf("frozen etas = %d, want 1", frozen.nEtas())
	}
	before := make([]float64, m)
	frozen.ftran(e, before, work)

	// Two children adopt the same frozen snapshot and append different
	// etas; neither the frozen parent nor the sibling may observe them.
	childA := *frozen
	childB := *frozen
	wa := make([]float64, m)
	wb := make([]float64, m)
	ea := make([]float64, m)
	ea[1] = 1
	eb := make([]float64, m)
	eb[2] = 1
	childA.ftran(ea, wa, work)
	childA.appendEta(3, wa)
	childB.ftran(eb, wb, work)
	childB.appendEta(4, wb)

	if frozen.nEtas() != 1 {
		t.Fatalf("parent eta count changed to %d after child appends", frozen.nEtas())
	}
	after := make([]float64, m)
	frozen.ftran(e, after, work)
	for i := range before {
		// Exact replay required: the frozen factor must be bitwise
		// unaffected by child appends, not merely close.
		if before[i]-after[i] != 0 {
			t.Fatalf("parent ftran result changed at %d: %g -> %g", i, before[i], after[i])
		}
	}
	if childA.nEtas() != 2 || childB.nEtas() != 2 {
		t.Fatalf("child eta counts = %d, %d, want 2, 2", childA.nEtas(), childB.nEtas())
	}
	if childA.etaPos[1] != 3 || childB.etaPos[1] != 4 {
		t.Fatalf("children share an eta tail: %v vs %v", childA.etaPos, childB.etaPos)
	}
}

func TestFactorFillHeavy(t *testing.T) {
	f := &luFactor{m: 2, nnzLU: 4}
	w := []float64{1, 1}
	budget := etaFillRows*f.m + etaFillLU*f.nnzLU
	for !f.fillHeavy() {
		f.appendEta(0, w)
		if f.etaNnz() > budget+2 {
			t.Fatalf("fillHeavy never triggered: nnz=%d budget=%d", f.etaNnz(), budget)
		}
	}
	if f.etaNnz() <= budget {
		t.Fatalf("fillHeavy fired early: nnz=%d budget=%d", f.etaNnz(), budget)
	}
}
