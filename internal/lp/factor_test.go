package lp

import (
	"fmt"
	"math"
	"reflect"
	"slices"
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
	out := make([]float64, m)
	var bs solveScratch
	bs.load(f)
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
		ftranVec(f, rhs, out, &bs)
		for i := 0; i < m; i++ {
			var bx float64
			for j := 0; j < m; j++ {
				bx += B[i][j] * out[j]
			}
			if math.Abs(bx-rhs[i]) > tol {
				t.Fatalf("ftran: (B·x)[%d] = %g, want %g (err %g)", i, bx, rhs[i], bx-rhs[i])
			}
		}
		btranVec(f, rhs, out, &bs)
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

// nonzeros returns the ascending positions of w's nonzeros: the list
// rev.ftran records beside its result and appendEta walks.
func nonzeros(w []float64) []int {
	var nz []int
	for i, wi := range w {
		if wi != 0 {
			nz = append(nz, i)
		}
	}
	return nz
}

// ftranVec runs FTRAN on a full-length rhs, whose support is every
// position not +0, into out (cleared first), and returns the result's
// support.
func ftranVec(f *luFactor, rhs, out []float64, s *solveScratch) []int {
	s.ensure(f.m)
	clear(out)
	return f.ftran(rhs, appendSupport(nil, rhs), out, make([]int, 0, f.m), s)
}

// btranVec is ftranVec for BTRAN; s must be loaded for f.
func btranVec(f *luFactor, c, out []float64, s *solveScratch) []int {
	clear(out)
	return f.btran(c, appendSupport(nil, c), out, make([]int, 0, f.m), s)
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
	var bs solveScratch
	bs.load(f)
	f.ftran(nil, nil, nil, nil, &bs) // must be a no-op, not a panic
	f.btran(nil, nil, nil, nil, &bs)
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
		var fs solveScratch
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
			ftranVec(f, a, w, &fs)
			if math.Abs(w[r]) < 0.5 {
				continue // perturbation unluckily large; skip this update
			}
			f.appendEta(r, w, nonzeros(w))
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
	var fs solveScratch
	w := make([]float64, m)
	e := make([]float64, m)
	e[0] = 1
	ftranVec(f, e, w, &fs)
	f.appendEta(2, w, nonzeros(w))

	frozen := f.freeze()
	if frozen.nEtas() != 1 {
		t.Fatalf("frozen etas = %d, want 1", frozen.nEtas())
	}
	before := make([]float64, m)
	ftranVec(frozen, e, before, &fs)

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
	ftranVec(&childA, ea, wa, &fs)
	childA.appendEta(3, wa, nonzeros(wa))
	ftranVec(&childB, eb, wb, &fs)
	childB.appendEta(4, wb, nonzeros(wb))

	if frozen.nEtas() != 1 {
		t.Fatalf("parent eta count changed to %d after child appends", frozen.nEtas())
	}
	after := make([]float64, m)
	ftranVec(frozen, e, after, &fs)
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
		f.appendEta(0, w, nonzeros(w))
		if f.etaNnz() > budget+2 {
			t.Fatalf("fillHeavy never triggered: nnz=%d budget=%d", f.etaNnz(), budget)
		}
	}
	if f.etaNnz() <= budget {
		t.Fatalf("fillHeavy fired early: nnz=%d budget=%d", f.etaNnz(), budget)
	}
}

// ftranDense and btranDense are FTRAN and BTRAN as they stood before the
// support walks, kept as the references the kernels must reproduce bit
// for bit, signed zeros included. ftranDense runs every stage over every
// elimination step; btranDense applies the eta file over the vector's
// support while it is hyper-sparse and runs the Uᵀ and Lᵀ stages over
// every step. Both read the whole input vector.

func ftranDense(f *luFactor, rhs, out, work []float64) {
	m := f.m
	for k := 0; k < m; k++ {
		work[k] = rhs[f.rowOf[k]]
	}
	// Forward solve L·z = P·rhs, scattering down column k.
	for k := 0; k < m; k++ {
		v := work[k]
		if v == 0 {
			continue
		}
		for t := f.lPtr[k]; t < f.lPtr[k+1]; t++ {
			work[f.lIdx[t]] -= f.lVal[t] * v
		}
	}
	// Backward solve U·x̃ = z, scattering up column k.
	for k := m - 1; k >= 0; k-- {
		v := work[k]
		if v == 0 {
			continue
		}
		v /= f.uDiag[k]
		work[k] = v
		for t := f.uPtr[k]; t < f.uPtr[k+1]; t++ {
			work[f.uIdx[t]] -= f.uVal[t] * v
		}
	}
	for k := 0; k < m; k++ {
		out[f.colOf[k]] = work[k]
	}
	// Eta file, oldest first: B = B₀·E₁⋯E_e, so B⁻¹ applies E⁻¹ in
	// chronological order after the factor solve.
	for e := 0; e < len(f.etaPos); e++ {
		r := f.etaPos[e]
		pv := out[r]
		if pv == 0 {
			continue
		}
		pv /= f.etaDiag[e]
		for t := f.etaPtr[e]; t < f.etaPtr[e+1]; t++ {
			out[f.etaIdx[t]] -= f.etaVal[t] * pv
		}
		out[r] = pv
	}
}

func btranDense(f *luFactor, c, out, work, cw []float64, s *solveScratch) {
	m := f.m
	// The support: ascending basis positions that may hold a nonzero of cw,
	// tracked while it stays within the hyper-sparse threshold.
	maxSupp := m / btranHyperDiv
	supp := make([]int, 0, m)
	sparse := true
	for i, ci := range c[:m] {
		cw[i] = ci
		if ci != 0 && sparse {
			if len(supp) < maxSupp {
				supp = append(supp, i)
			} else {
				sparse = false
			}
		}
	}
	// Eta transposes, newest first: cᵀ·E_e⁻¹ touches only position r,
	// which takes the dot product of cw with the eta's off-diagonal part.
	for e := len(f.etaPos) - 1; e >= 0; e-- {
		r := f.etaPos[e]
		lo, hi := f.etaPtr[e], f.etaPtr[e+1]
		old := cw[r]
		v := old
		switch {
		case sparse && (lo == hi || len(supp) == 0 || supp[0] > f.etaIdx[hi-1] || supp[len(supp)-1] < f.etaIdx[lo]):
			// The support misses the eta's index range: no nonzero terms.
		case sparse && hi-lo > etaSearchMin*len(supp):
			// Over the support: both it and the eta's indices ascend, so
			// each position is found by binary search past the previous
			// hit, and the terms come in the full scan's order less its
			// zero products.
			for _, i := range supp {
				lo = searchIdx(f.etaIdx, lo, hi, i)
				if lo == hi {
					break
				}
				if f.etaIdx[lo] == i {
					v -= cw[i] * f.etaVal[lo]
					lo++
				}
			}
		default:
			for t := lo; t < hi; t++ {
				v -= cw[f.etaIdx[t]] * f.etaVal[t]
			}
		}
		v /= f.etaDiag[e]
		cw[r] = v
		if sparse && v != 0 && old == 0 {
			// r joins the support unless a cancellation left it there. (A
			// nonzero old value means r is there already.)
			k := searchIdx(supp, 0, len(supp), r)
			if k == len(supp) || supp[k] != r {
				if len(supp) == maxSupp {
					sparse = false
					continue
				}
				supp = append(supp, 0)
				copy(supp[k+1:], supp[k:])
				supp[k] = r
			}
		}
	}
	for k := 0; k < m; k++ {
		work[k] = cw[f.colOf[k]]
	}
	// Forward solve Uᵀ·z = c̃ in scatter form over U's rows: once z_k is
	// final it is subtracted into the later entries of row k. Entry j
	// receives its terms in ascending k, the order of the gather down U's
	// column j, and a zero z_k contributes only exact zeros.
	for k := 0; k < m; k++ {
		v := work[k]
		if v == 0 {
			continue
		}
		v /= f.uDiag[k]
		work[k] = v
		for t := s.uRowPtr[k]; t < s.uRowPtr[k+1]; t++ {
			work[s.uRowIdx[t]] -= s.uRowVal[t] * v
		}
	}
	// Backward solve Lᵀ·ỹ = z, gathering down each non-empty column k; a
	// scatter form would reorder the sums.
	if len(f.lIdx) > 0 {
		for k := m - 1; k >= 0; k-- {
			if lo, hi := f.lPtr[k], f.lPtr[k+1]; lo < hi {
				v := work[k]
				for t := lo; t < hi; t++ {
					v -= f.lVal[t] * work[f.lIdx[t]]
				}
				work[k] = v
			}
		}
	}
	for k := 0; k < m; k++ {
		out[f.rowOf[k]] = work[k]
	}
}

// btranGather is the column-gather BTRAN the kernel used before its
// hyper-sparse form, kept as the reference the kernel must reproduce bit
// for bit: every eta transpose scans its full index list, and Uᵀ and Lᵀ
// gather down every column, zero terms included.
func btranGather(f *luFactor, c, out []float64) {
	m := f.m
	cw := append([]float64(nil), c...)
	work := make([]float64, m)
	for e := len(f.etaPos) - 1; e >= 0; e-- {
		r := f.etaPos[e]
		s := cw[r]
		for t := f.etaPtr[e]; t < f.etaPtr[e+1]; t++ {
			s -= cw[f.etaIdx[t]] * f.etaVal[t]
		}
		cw[r] = s / f.etaDiag[e]
	}
	for k := 0; k < m; k++ {
		work[k] = cw[f.colOf[k]]
	}
	for k := 0; k < m; k++ {
		s := work[k]
		for t := f.uPtr[k]; t < f.uPtr[k+1]; t++ {
			s -= f.uVal[t] * work[f.uIdx[t]]
		}
		work[k] = s / f.uDiag[k]
	}
	for k := m - 1; k >= 0; k-- {
		s := work[k]
		for t := f.lPtr[k]; t < f.lPtr[k+1]; t++ {
			s -= f.lVal[t] * work[f.lIdx[t]]
		}
		work[k] = s
	}
	for k := 0; k < m; k++ {
		out[f.rowOf[k]] = work[k]
	}
}

// sameBits reports whether a and b are the same float64 bit for bit, with
// +0 and −0 taken as equal: a skipped exact-zero product may flip the sign
// of a zero result, and nothing downstream reads that sign.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a == 0 && b == 0)
}

// checkBtranBits runs the kernel and btranGather on c and fails on the
// first element that differs.
func checkBtranBits(t *testing.T, what string, f *luFactor, bs *solveScratch, c []float64) {
	t.Helper()
	m := f.m
	want := make([]float64, m)
	btranGather(f, c, want)
	got := make([]float64, m)
	btranVec(f, c, got, bs)
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s: y[%d] = %v (%#x), gather reference %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// sparseInput returns an m-vector with k nonzeros at random positions.
func sparseInput(s *rng.Source, m, k int) []float64 {
	c := make([]float64, m)
	for _, i := range s.Perm(m)[:k] {
		c[i] = s.Uniform(-2, 2)
	}
	return c
}

// randomEta appends one synthetic product-form update at position r to f:
// a diagonal of healthy size and fill nonzeros at random positions. The
// comparison with btranGather is bitwise, so the etas need not describe a
// real pivot sequence, only divide safely.
func randomEta(s *rng.Source, f *luFactor, r, fill int) {
	w := make([]float64, f.m)
	for _, i := range s.Perm(f.m)[:fill] {
		w[i] = s.Uniform(-1, 1)
	}
	w[r] = s.Uniform(1, 2) * float64(1-2*s.Intn(2))
	f.appendEta(r, w, nonzeros(w))
}

// TestBtranMatchesGather holds the hyper-sparse BTRAN to the gather
// reference bit for bit on random sparse factors whose eta files grow in
// length and fill, for inputs with 0, 1, 3, m/8 and m nonzeros. One
// scratch serves every factor, reloaded per factor as a solver reloads it.
func TestBtranMatchesGather(t *testing.T) {
	s := rng.New(17, "lp-btran-gather")
	var bs solveScratch
	for trial := 0; trial < 12; trial++ {
		m := 40 + s.Intn(120)
		B := randomSparseBasis(s, m, 2*m)
		colPtr, rowIdx, vals := cscFromDense(B)
		f, err := factorizeBasis(m, colPtr, rowIdx, vals)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(f.uIdx) == 0 {
			t.Fatalf("trial %d: U has no off-diagonal entries; the Uᵀ scatter goes unexercised", trial)
		}
		bs.load(f)
		for _, etas := range []int{0, 4, 16, 64} {
			for f.nEtas() < etas {
				// Fill grows with the file: late etas carry up to m/2
				// entries, long enough to be searched for several support
				// positions at once.
				randomEta(s, f, s.Intn(m), s.Intn(1+f.nEtas()*m/(2*64)+1))
			}
			for _, k := range []int{0, 1, 3, m / 8, m} {
				for rep := 0; rep < 4; rep++ {
					checkBtranBits(t, fmt.Sprintf("trial %d, m=%d, %d etas, %d nonzeros", trial, m, etas, k),
						f, &bs, sparseInput(s, m, k))
				}
			}
		}
	}
}

// TestBtranSupportCrossesThreshold builds an eta file in which every eta
// reaches the position of the one applied before it, so a unit input's
// support grows by one position per eta and passes the hyper-sparse
// threshold partway through the file; the kernel must switch to full scans
// there without changing a bit.
func TestBtranSupportCrossesThreshold(t *testing.T) {
	s := rng.New(18, "lp-btran-threshold")
	m := 120
	limit := m / btranHyperDiv
	B := randomSparseBasis(s, m, 2*m)
	colPtr, rowIdx, vals := cscFromDense(B)
	f, err := factorizeBasis(m, colPtr, rowIdx, vals)
	if err != nil {
		t.Fatal(err)
	}
	// BTRAN applies the newest eta first. The unit input sits at chain[0];
	// the eta applied k-th writes chain[k] and reads chain[k-1], plus noise
	// at positions off the chain: enough that the early etas take the
	// binary-search path and the later ones the scan.
	nEtas := 3 * limit
	chain := s.Perm(m)[:nEtas+1]
	onChain := map[int]bool{}
	for _, p := range chain {
		onChain[p] = true
	}
	for e := nEtas; e >= 1; e-- {
		w := make([]float64, m)
		for _, i := range s.Perm(m)[:40] {
			if !onChain[i] {
				w[i] = s.Uniform(-1, 1)
			}
		}
		w[chain[e-1]] = s.Uniform(0.5, 1)
		w[chain[e]] = s.Uniform(1, 2)
		f.appendEta(chain[e], w, nonzeros(w))
	}
	// Replay the eta stage densely to confirm the support really crosses
	// the threshold partway through the file.
	c := make([]float64, m)
	c[chain[0]] = 1
	cw := append([]float64(nil), c...)
	crossedAt := -1
	for e := f.nEtas() - 1; e >= 0; e-- {
		r := f.etaPos[e]
		v := cw[r]
		for t := f.etaPtr[e]; t < f.etaPtr[e+1]; t++ {
			v -= cw[f.etaIdx[t]] * f.etaVal[t]
		}
		cw[r] = v / f.etaDiag[e]
		if crossedAt < 0 && len(nonzeros(cw)) > limit {
			crossedAt = f.nEtas() - e
		}
	}
	if crossedAt <= 1 || crossedAt >= f.nEtas() {
		t.Fatalf("support crossed the threshold (%d) after eta %d of %d, want partway", limit, crossedAt, f.nEtas())
	}
	var bs solveScratch
	bs.load(f)
	checkBtranBits(t, "unit input on the chain", f, &bs, c)
	for k := 0; k < 8; k++ {
		checkBtranBits(t, "sparse input", f, &bs, sparseInput(s, m, 1+s.Intn(limit)))
	}
}

// TestBtranStaircaseBasis compares the kernel with the gather reference
// on the factor and eta file a cold solve of a BuildFR-shaped staircase LP
// ends with, for every unit input (one row of B⁻¹ each, the dual simplex's
// pivot rows) and the phase-2 basic costs.
func TestBtranStaircaseBasis(t *testing.T) {
	g := generateStaircaseLP(rng.New(19, "lp-btran-staircase"), 40, 5)
	tr := newRev(g.p, Options{})
	sol, _, err := tr.solveCold(g.p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	f := tr.lu
	if f.nEtas() == 0 {
		t.Fatal("the final factor carries no eta file; the eta stage goes unexercised")
	}
	m := f.m
	for i := 0; i < m; i++ {
		e := make([]float64, m)
		e[i] = 1
		checkBtranBits(t, fmt.Sprintf("unit %d", i), f, &tr.luS, e)
	}
	cb := make([]float64, m)
	for i := range cb {
		if v := tr.basis[i]; v < g.p.NumVars() {
			cb[i] = g.obj[v]
		}
	}
	checkBtranBits(t, "basic costs", f, &tr.luS, cb)
}

// TestFtranNonzeroList: rev.ftran's nonzero list is exactly the ascending
// nonzero positions of w, for every column of a staircase LP at its final
// basis.
func TestFtranNonzeroList(t *testing.T) {
	g := generateStaircaseLP(rng.New(20, "lp-ftran-nz"), 30, 4)
	tr := newRev(g.p, Options{})
	if _, _, err := tr.solveCold(g.p); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < tr.width; j++ {
		tr.ftran(j)
		if want := nonzeros(tr.w); !reflect.DeepEqual(append([]int{}, tr.wNz...), append([]int{}, want...)) {
			t.Fatalf("column %d: nonzero list %v, want %v", j, tr.wNz, want)
		}
	}
}

// growBasis returns B grown by k rows and columns as rev.extendFactor
// sees it: the new block is the identity (the appended rows' logicals,
// basic at positions m0…m−1) and each new row has a few entries on old
// columns (C). It extends f to match — identity steps, then one unit eta
// per old position that C reaches — with own selecting in-place growth.
func growBasis(s *rng.Source, f *luFactor, B [][]float64, k int, own bool) [][]float64 {
	m0 := len(B)
	m := m0 + k
	G := make([][]float64, m)
	for i := range G {
		G[i] = make([]float64, m)
		if i < m0 {
			copy(G[i], B[i])
		} else {
			G[i][i] = 1
		}
	}
	for r := m0; r < m; r++ {
		for e := 0; e < 3; e++ {
			G[r][s.Intn(m0)] = s.Uniform(-2, 2)
		}
	}
	scales := make([]float64, k)
	for i := range scales {
		scales[i] = 1
	}
	f.extend(m, scales, own)
	for p := 0; p < m0; p++ {
		var idx []int
		var val []float64
		for r := m0; r < m; r++ {
			if G[r][p] != 0 {
				idx = append(idx, r)
				val = append(val, G[r][p])
			}
		}
		if len(idx) > 0 {
			f.appendUnitEta(p, idx, val)
		}
	}
	return G
}

// pivotColumns replaces n random columns of B through f's eta file, as
// TestFactorEtaUpdates does, keeping B the matrix f represents.
func pivotColumns(s *rng.Source, f *luFactor, B [][]float64, n int) {
	m := len(B)
	var fs solveScratch
	w := make([]float64, m)
	for upd := 0; upd < n; upd++ {
		r := s.Intn(m)
		alpha := s.Uniform(1, 2)
		a := make([]float64, m)
		for i := range a {
			a[i] = alpha * B[i][r]
			if s.Intn(4) == 0 {
				a[i] += s.Uniform(-0.3, 0.3)
			}
		}
		ftranVec(f, a, w, &fs)
		if math.Abs(w[r]) < 0.5 {
			continue
		}
		f.appendEta(r, w, nonzeros(w))
		for i := 0; i < m; i++ {
			B[i][r] = a[i]
		}
	}
}

// checkAgainstFresh compares f's ftran and btran with those of a fresh
// factorisation of B on inputs with 1, 3 and m nonzeros, within rel
// relative to the larger result.
func checkAgainstFresh(t *testing.T, what string, f *luFactor, B [][]float64, s *rng.Source, rel float64) {
	t.Helper()
	m := len(B)
	colPtr, rowIdx, vals := cscFromDense(B)
	fresh, err := factorizeBasis(m, colPtr, rowIdx, vals)
	if err != nil {
		t.Fatalf("%s: fresh factorisation: %v", what, err)
	}
	var bsF, bsG solveScratch
	bsF.load(f)
	bsG.load(fresh)
	got, want := make([]float64, m), make([]float64, m)
	near := func(kernel string, nnz int) {
		scale := 1.0
		for _, v := range want {
			scale = math.Max(scale, math.Abs(v))
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > rel*scale {
				t.Fatalf("%s: %s with %d nonzeros: [%d] = %.17g, fresh factorisation %.17g",
					what, kernel, nnz, i, got[i], want[i])
			}
		}
	}
	for _, nnz := range []int{1, 3, m} {
		for rep := 0; rep < 3; rep++ {
			c := sparseInput(s, m, nnz)
			ftranVec(f, c, got, &bsF)
			ftranVec(fresh, c, want, &bsG)
			near("ftran", nnz)
			btranVec(f, c, got, &bsF)
			btranVec(fresh, c, want, &bsG)
			near("btran", nnz)
		}
	}
}

// TestFactorExtendMatchesRefactor: a factor extended across k = 1, 3 and
// 8 appended rows (identity steps plus the unit etas of C) solves like a
// fresh factorisation of the grown basis, in the owned in-place form and
// in the copy a frozen snapshot gets, and the snapshot it was extended
// from still solves its own basis. Two chains follow the same check: an
// extension, pivot etas and a second extension; and an extension whose
// eta file then grows fill-heavy and is refactorised.
func TestFactorExtendMatchesRefactor(t *testing.T) {
	s := rng.New(23, "lp-factor-extend")
	const rel = 1e-12
	for trial := 0; trial < 8; trial++ {
		m0 := 20 + s.Intn(60)
		B := randomSparseBasis(s, m0, 2*m0)
		colPtr, rowIdx, vals := cscFromDense(B)
		base, err := factorizeBasis(m0, colPtr, rowIdx, vals)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		pivotColumns(s, base, B, 4)
		snap := base.freeze()
		for _, k := range []int{1, 3, 8} {
			for _, own := range []bool{false, true} {
				what := fmt.Sprintf("trial %d, m0=%d, k=%d, own=%v", trial, m0, k, own)
				f := *snap
				if own {
					f = luFactor{}
					f.copyFrom(snap)
				}
				G := growBasis(s, &f, B, k, own)
				checkAgainstFresh(t, what, &f, G, s, rel)
				if f.nnzLU != snap.nnzLU+k || len(f.scales) != len(snap.scales)+k {
					t.Fatalf("%s: nnzLU %d and %d scales, snapshot %d and %d", what,
						f.nnzLU, len(f.scales), snap.nnzLU, len(snap.scales))
				}
				// Rows of U the scratch adopts for the snapshot's U, at the
				// extended dimension, give BTRAN the same bits as a load.
				var adopted, loaded solveScratch
				adopted.adopt(snap, f.m)
				loaded.load(&f)
				for _, nnz := range []int{1, 3, f.m} {
					c := sparseInput(s, f.m, nnz)
					checkBtranBits(t, what+", adopted rows", &f, &adopted, c)
					checkBtranBits(t, what+", loaded rows", &f, &loaded, c)
				}
			}
		}
		// The extensions wrote nothing the snapshot shares.
		checkAgainstFresh(t, fmt.Sprintf("trial %d, snapshot after its extensions", trial), snap, B, s, rel)

		// Chain: extend, pivot, extend again.
		f := *snap
		G := growBasis(s, &f, B, 3, false)
		pivotColumns(s, &f, G, 6)
		g := *f.freeze()
		G = growBasis(s, &g, G, 5, false)
		checkAgainstFresh(t, fmt.Sprintf("trial %d, extend-pivot-extend", trial), &g, G, s, rel)

		// Chain: extend, pivot until the eta file is fill-heavy, then
		// refactorise the grown basis.
		h := *snap
		G = growBasis(s, &h, B, 8, false)
		for n := 0; !h.fillHeavy(); n++ {
			if n > 50*h.m {
				t.Fatalf("trial %d: eta file never went fill-heavy (%d nonzeros, %d in LU)", trial, h.etaNnz(), h.nnzLU)
			}
			pivotColumns(s, &h, G, 1)
		}
		colPtr, rowIdx, vals = cscFromDense(G)
		var fs facState
		var re luFactor
		if err := fs.factorizeInto(&re, h.m, colPtr, rowIdx, vals); err != nil {
			t.Fatalf("trial %d: refactorising the fill-heavy extension: %v", trial, err)
		}
		checkAgainstFresh(t, fmt.Sprintf("trial %d, fill-heavy extension", trial), &h, G, s, rel)
		checkAgainstFresh(t, fmt.Sprintf("trial %d, refactorised extension", trial), &re, G, s, rel)
	}
}

// checkKernelBits holds the support-walking FTRAN and BTRAN of f on c,
// whose support supp lists every position where c is not +0, to the dense
// references: every element must agree in its bits, each returned support
// must be exactly the reference result's positions that are not +0, and
// the scratch's work vectors and queues must be +0 again afterwards.
func checkKernelBits(t *testing.T, what string, f *luFactor, s *solveScratch, c []float64, supp []int) {
	t.Helper()
	m := f.m
	check := func(kernel string, got, want []float64, sup []int) {
		t.Helper()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: %s[%d] = %v (%#x), dense reference %v (%#x)", what, kernel, i,
					got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
		if ref := appendSupport(nil, want); !slices.Equal(sup, ref) {
			t.Fatalf("%s: %s support %v, dense reference %v", what, kernel, sup, ref)
		}
		for i := range s.work {
			if math.Float64bits(s.work[i]) != 0 || math.Float64bits(s.cw[i]) != 0 {
				t.Fatalf("%s: %s left work[%d] = %v, cw[%d] = %v", what, kernel, i, s.work[i], i, s.cw[i])
			}
		}
		for w := range s.queue {
			if s.queue[w] != 0 || s.outBits[w] != 0 {
				t.Fatalf("%s: %s left queue word %d set", what, kernel, w)
			}
		}
	}
	want := make([]float64, m)
	ftranDense(f, c, want, make([]float64, m))
	got := make([]float64, m)
	check("ftran", got, want, f.ftran(c, supp, got, make([]int, 0, m), s))
	btranDense(f, c, want, make([]float64, m), make([]float64, m), s)
	got = make([]float64, m)
	check("btran", got, want, f.btran(c, supp, got, make([]int, 0, m), s))
}

// kernelInput returns an m-vector with k nonzeros at random positions and
// its support. With signed set, about a quarter of the other positions
// hold −0, listed in the support as every position not +0 must be, and
// some +0 positions are listed too, which the kernels must tolerate.
func kernelInput(s *rng.Source, m, k int, signed bool) ([]float64, []int) {
	c := sparseInput(s, m, k)
	listed := make([]bool, m)
	for i, v := range c {
		listed[i] = v != 0
	}
	if signed {
		for i := range c {
			switch {
			case c[i] != 0:
			case s.Intn(4) == 0:
				c[i] = math.Copysign(0, -1)
				listed[i] = true
			case s.Intn(8) == 0:
				listed[i] = true
			}
		}
	}
	var supp []int
	for i, l := range listed {
		if l {
			supp = append(supp, i)
		}
	}
	return c, supp
}

// kernelCounts are the input sizes of the differential checks: one, a
// few, and either side of the density switch, so the switch fires before
// the walk, at its first fill, and partway through a stage.
func kernelCounts(m int) []int {
	lim := m / denseSwitchDiv
	counts := []int{1, 2, 3, 5}
	for _, k := range []int{lim - 1, lim, lim + 1} {
		if k > 5 && k <= m {
			counts = append(counts, k)
		}
	}
	return counts
}

// TestKernelsMatchDense holds the support-walking FTRAN and BTRAN to the
// dense reference kernels bit for bit, signed zeros included, on random
// sparse bases (their etas, with diagonals of either sign, turn zeros
// into −0 in BTRAN's eta stage), on factors extended across appended rows,
// and on the final factor of a cold staircase solve with m >= 1,000 rows.
func TestKernelsMatchDense(t *testing.T) {
	s := rng.New(24, "lp-kernel-dense")
	var bs solveScratch
	for trial := 0; trial < 10; trial++ {
		m := 40 + s.Intn(160)
		B := randomSparseBasis(s, m, 3*m)
		colPtr, rowIdx, vals := cscFromDense(B)
		f, err := factorizeBasis(m, colPtr, rowIdx, vals)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(f.lIdx) == 0 || len(f.uIdx) == 0 {
			t.Fatalf("trial %d: L has %d and U %d off-diagonal entries; a stage goes unexercised", trial, len(f.lIdx), len(f.uIdx))
		}
		bs.load(f)
		for _, etas := range []int{0, 8, 40} {
			for f.nEtas() < etas {
				randomEta(s, f, s.Intn(m), s.Intn(1+m/8))
			}
			for _, k := range kernelCounts(m) {
				for _, signed := range []bool{false, true} {
					c, supp := kernelInput(s, m, k, signed)
					checkKernelBits(t, fmt.Sprintf("trial %d, m=%d, %d etas, %d nonzeros, signed %v", trial, m, etas, k, signed), f, &bs, c, supp)
				}
			}
		}
		// The same factor extended across appended rows, as a warm start
		// after new rows adopts it, with pivots on the grown basis.
		snap := f.freeze()
		g := *snap
		G := growBasis(s, &g, B, 1+s.Intn(8), false)
		pivotColumns(s, &g, G, 4)
		bs.adopt(snap, g.m)
		for _, k := range kernelCounts(g.m) {
			c, supp := kernelInput(s, g.m, k, true)
			checkKernelBits(t, fmt.Sprintf("trial %d, extended to m=%d, %d nonzeros", trial, g.m, k), &g, &bs, c, supp)
		}
	}

	// A staircase LP at DSCT-EA-FR scale: the final factor and eta file of
	// a cold solve, on unit vectors, the basic costs, structural columns
	// and random sparse inputs.
	g := generateStaircaseLP(rng.New(25, "lp-kernel-staircase"), 200, 5)
	tr := newRev(g.p, Options{})
	sol, _, err := tr.solveCold(g.p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("staircase status %v", sol.Status)
	}
	f, m := tr.lu, tr.m
	if m < 1000 || f.nEtas() == 0 {
		t.Fatalf("staircase factor has m=%d and %d etas, want m >= 1000 with an eta file", m, f.nEtas())
	}
	for rep := 0; rep < 20; rep++ {
		e := make([]float64, m)
		i := s.Intn(m)
		e[i] = 1
		checkKernelBits(t, fmt.Sprintf("staircase unit %d", i), f, &tr.luS, e, []int{i})
	}
	cb := make([]float64, m)
	for i := range cb {
		if v := tr.basis[i]; v < g.p.NumVars() {
			cb[i] = g.obj[v]
		}
	}
	checkKernelBits(t, "staircase basic costs", f, &tr.luS, cb, appendSupport(nil, cb))
	for rep := 0; rep < 20; rep++ {
		j := s.Intn(tr.n)
		a := make([]float64, m)
		rows := tr.sp.rowIdx[tr.sp.colPtr[j]:tr.sp.colPtr[j+1]]
		for k, r := range rows {
			a[r] = tr.sp.colVal[tr.sp.colPtr[j]+k]
		}
		checkKernelBits(t, fmt.Sprintf("staircase column %d", j), f, &tr.luS, a, rows)
	}
	for _, k := range kernelCounts(m) {
		c, supp := kernelInput(s, m, k, true)
		checkKernelBits(t, fmt.Sprintf("staircase, %d nonzeros", k), f, &tr.luS, c, supp)
	}
}

// FuzzKernelsMatchDense is TestKernelsMatchDense's random-basis check
// under fuzzing: a seed, the dimension, the eta count, the input's
// nonzero count and whether −0 entries join it.
func FuzzKernelsMatchDense(f *testing.F) {
	f.Add(int64(1), uint8(60), uint8(0), uint8(1), false)
	f.Add(int64(2), uint8(120), uint8(16), uint8(11), true)
	f.Add(int64(3), uint8(200), uint8(40), uint8(21), true)
	f.Add(int64(4), uint8(90), uint8(8), uint8(9), true)
	f.Add(int64(5), uint8(1), uint8(3), uint8(1), true)
	f.Fuzz(func(t *testing.T, seed int64, mRaw, etaRaw, nnzRaw uint8, signed bool) {
		s := rng.New(seed, "lp-kernel-fuzz")
		m := 1 + int(mRaw)
		B := randomSparseBasis(s, m, 3*m)
		colPtr, rowIdx, vals := cscFromDense(B)
		fac, err := factorizeBasis(m, colPtr, rowIdx, vals)
		if err != nil {
			t.Skip("singular random basis")
		}
		for e := 0; e < int(etaRaw)%64; e++ {
			randomEta(s, fac, s.Intn(m), s.Intn(1+m/8))
		}
		var bs solveScratch
		bs.load(fac)
		c, supp := kernelInput(s, m, 1+int(nnzRaw)%m, signed)
		checkKernelBits(t, fmt.Sprintf("m=%d, %d etas, %d listed", m, fac.nEtas(), len(supp)), fac, &bs, c, supp)
	})
}
