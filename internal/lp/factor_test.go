package lp

import (
	"fmt"
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
	var bs btranScratch
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
		f.btran(rhs, out, work, cw, &bs)
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
	var bs btranScratch
	bs.load(f)
	f.ftran(nil, nil, nil) // must be a no-op, not a panic
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
	work := make([]float64, m)
	w := make([]float64, m)
	e := make([]float64, m)
	e[0] = 1
	f.ftran(e, w, work)
	f.appendEta(2, w, nonzeros(w))

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
	childA.appendEta(3, wa, nonzeros(wa))
	childB.ftran(eb, wb, work)
	childB.appendEta(4, wb, nonzeros(wb))

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
		f.appendEta(0, w, nonzeros(w))
		if f.etaNnz() > budget+2 {
			t.Fatalf("fillHeavy never triggered: nnz=%d budget=%d", f.etaNnz(), budget)
		}
	}
	if f.etaNnz() <= budget {
		t.Fatalf("fillHeavy fired early: nnz=%d budget=%d", f.etaNnz(), budget)
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
func checkBtranBits(t *testing.T, what string, f *luFactor, bs *btranScratch, c []float64) {
	t.Helper()
	m := f.m
	want := make([]float64, m)
	btranGather(f, c, want)
	got := make([]float64, m)
	// Dirty scratch, as the solver leaves it between calls.
	work := make([]float64, m)
	cw := make([]float64, m)
	for i := range work {
		work[i], cw[i] = math.NaN(), math.NaN()
	}
	f.btran(c, got, work, cw, bs)
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
	var bs btranScratch
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
	var bs btranScratch
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
		checkBtranBits(t, fmt.Sprintf("unit %d", i), f, &tr.luBt, e)
	}
	cb := make([]float64, m)
	for i := range cb {
		if v := tr.basis[i]; v < g.p.NumVars() {
			cb[i] = g.obj[v]
		}
	}
	checkBtranBits(t, "basic costs", f, &tr.luBt, cb)
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
	work := make([]float64, m)
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
		f.ftran(a, w, work)
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
	var bsF, bsG btranScratch
	bsF.load(f)
	bsG.load(fresh)
	work, cw := make([]float64, m), make([]float64, m)
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
			f.ftran(c, got, work)
			fresh.ftran(c, want, work)
			near("ftran", nnz)
			f.btran(c, got, work, cw, &bsF)
			fresh.btran(c, want, work, cw, &bsG)
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
				var adopted, loaded btranScratch
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
