package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/machine"
	"repro/internal/numeric"
	"repro/internal/rng"
	"repro/internal/task"
)

// namedInstance is one input of the dual tests.
type namedInstance struct {
	name string
	in   *task.Instance
}

// dualInstances are the golden inputs (Table 1, Fig 6b, Fig 6a/6b on the
// catalog fleet, uniform fleets) followed by the first draws of the
// approx-large benchmark pool.
func dualInstances(t *testing.T, approxDraws int) []namedInstance {
	t.Helper()
	var out []namedInstance
	for _, g := range goldenInstances() {
		in, err := g.gen()
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		out = append(out, namedInstance{g.name, in})
	}
	for k := 0; k < approxDraws; k++ {
		cfg := task.DefaultConfig(100, 0.35, 0.5)
		cfg.ThetaMax = 0.5
		in, err := task.GenerateUniformFleet(rng.NewReplicate(1, "dsctbench/approx-large/n=100", k), cfg, 5)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, namedInstance{fmt.Sprintf("approx-large/seed=1/k=%d", k), in})
	}
	return out
}

// kinkProfile draws a profile whose entries are 0, a task deadline, d_max
// or uniform in between, so that the draws sit on the kinks of
// C_k(p) = Σ_r s_r·min(d_k, p_r) as well as between them.
func kinkProfile(src *rng.Source, in *task.Instance) Profile {
	dMax := in.MaxDeadline()
	p := make(Profile, in.M())
	for r := range p {
		switch src.Intn(4) {
		case 0:
			p[r] = 0
		case 1:
			p[r] = in.Tasks[src.Intn(in.N())].Deadline
		case 2:
			p[r] = dMax
		default:
			p[r] = src.Uniform(0, dMax)
		}
	}
	return p
}

// nearProfile moves some entries of p a little either way, within [0, d_max].
func nearProfile(src *rng.Source, in *task.Instance, p Profile) Profile {
	dMax := in.MaxDeadline()
	q := p.Clone()
	scale := dMax * []float64{1e-6, 1e-3, 0.05}[src.Intn(3)]
	for r := range q {
		if src.Intn(2) == 0 {
			q[r] = min(dMax, max(0, q[r]+src.Uniform(-scale, scale)))
		}
	}
	return q
}

// lambdaKind selects the multipliers priceAt bounds with: the greedy's
// dual, the greedy's with each λ_k scaled by a random factor in
// [0.5, 1.5], or a sparse random λ. The bound must hold for all three.
type lambdaKind int

const (
	greedyLambda lambdaKind = iota
	scaledLambda
	sparseLambda
)

// priceAt runs the dual pass at p and returns V(p) and a refiner holding
// the bound, rebuilt from other multipliers when kind asks for them.
func priceAt(in *task.Instance, p Profile, src *rng.Source, kind lambdaKind) (*refiner, float64) {
	opts := RefineOptions{}
	opts.defaults()
	rf := newRefiner(NewAllocator(in.Tasks, opts.Greedy), in, opts)
	v := rf.reprice(p)
	if kind == greedyLambda {
		return rf, v
	}
	a := rf.alloc
	top := 0.0
	for _, s := range a.segs {
		top = max(top, s.slope)
	}
	for k := range a.lambda {
		if kind == scaledLambda {
			a.lambda[k] *= src.Uniform(0.5, 1.5)
		} else if a.lambda[k] = 0; src.Intn(4) == 0 {
			a.lambda[k] = src.Uniform(0, top)
		}
	}
	rf.bound = a.dualValue(a.caps)
	rf.gradient(p)
	return rf, v
}

// TestDualBoundHolds checks the bound itself. At profiles on and between
// the kinks of C, the greedy's dual value D(p) equals V(p) to 1e-12
// relative, and V(q) <= D(p) + g·(q − p) for profiles q far from and near
// p, where g takes up[r] where q_r > p_r and down[r] where q_r < p_r. The
// second inequality is also checked for other multipliers λ >= 0.
func TestDualBoundHolds(t *testing.T) {
	src := rng.New(3, "core/dual-bound")
	for _, ni := range dualInstances(t, 8) {
		name, in := ni.name, ni.in
		for trial := 0; trial < 12; trial++ {
			p := kinkProfile(src, in)
			kind := lambdaKind(trial % 3)
			rf, v := priceAt(in, p, src, kind)
			tol := 1e-12 * math.Max(1, math.Abs(v))
			if v > rf.bound+tol {
				t.Fatalf("%s: V(p) = %.17g above D(p) = %.17g at p = %v (λ kind %d)", name, v, rf.bound, p, kind)
			}
			if kind == greedyLambda && rf.bound-v > tol {
				t.Errorf("%s: greedy dual leaves gap D(p) − V(p) = %g at p = %v", name, rf.bound-v, p)
			}
			for k := 0; k < 6; k++ {
				q := kinkProfile(src, in)
				if k%2 == 0 {
					q = nearProfile(src, in, p)
				}
				bound := rf.bound
				for r := range q {
					bound += rf.ascent(r, q[r]-p[r])
				}
				if vq := rf.alloc.total(in, q); vq > bound+tol {
					t.Fatalf("%s: V(q) = %.17g above D(p) + g·(q−p) = %.17g (λ kind %d)\np = %v\nq = %v", name, vq, bound, kind, p, q)
				}
			}
		}
	}
}

// TestDualHandCase prices a one-machine instance at a kink. Tasks with
// deadlines 1 and 2 s on a 1 GFLOP/s machine with p = 1 s share one
// GFLOP, which the steeper first task takes: both prefixes are tight,
// λ = (1, 1), Λ = (2, 1), D = V = 2. Raising p frees capacity for the
// second task only (up = 1); lowering it takes capacity from the first
// (down = 2), because C_1 has its kink at p = d_1.
func TestDualHandCase(t *testing.T) {
	in := &task.Instance{
		Tasks: []task.Task{
			mkTask(t, "t0", 1, []float64{0, 10}, []float64{0, 20}),
			mkTask(t, "t1", 2, []float64{0, 10}, []float64{0, 10}),
		},
		Machines: machine.Fleet{{Name: "r0", Speed: 1, Power: 1}},
		Budget:   1,
	}
	p := Profile{1}
	rf, v := priceAt(in, p, nil, greedyLambda)
	a := rf.alloc
	if !numeric.AlmostEqual(v, 2) || !numeric.AlmostEqual(rf.bound, 2) {
		t.Errorf("V = %g, D = %g, want 2 and 2", v, rf.bound)
	}
	if !slices.Equal(a.lambda, []float64{1, 1}) || !slices.Equal(a.price, []float64{2, 1, 0}) {
		t.Errorf("λ = %v, Λ = %v, want [1 1] and [2 1 0]", a.lambda, a.price)
	}
	if !numeric.AlmostEqual(rf.up[0], 1) || !numeric.AlmostEqual(rf.down[0], 2) {
		t.Errorf("up = %g, down = %g, want 1 and 2", rf.up[0], rf.down[0])
	}
	for _, step := range []float64{0.25, -0.25} {
		got, _ := Value(in, Profile{1 + step}, GreedyOptions{})
		if want := rf.bound + rf.ascent(0, step); !numeric.AlmostEqual(got, want) {
			t.Errorf("V(p%+g) = %g, bound %g: the bound should be exact here", step, got, want)
		}
	}
}

// lineDir is a line search direction in energy space: the profile moves
// to q_r = p_r + e·dir[r]/P_r, clamped to [0, d_max], for e in [0, eMax].
type lineDir struct {
	kind string
	dir  []float64
	eMax float64
}

// lineDirs lists the line searches the refinement could run at p: every
// slack extension, every ordered exchange and 8m polish-style directions,
// with the refinement's own step limits.
func lineDirs(src *rng.Source, in *task.Instance, p Profile, tol float64) []lineDir {
	m, dMax := in.M(), in.MaxDeadline()
	var out []lineDir
	unit := func(r, rp int) []float64 {
		d := make([]float64, m)
		d[r] = 1
		if rp >= 0 {
			d[rp] = -1
		}
		return d
	}
	slack := in.Budget - p.Energy(in)
	for r := 0; r < m; r++ {
		if slack > tol && p[r] < dMax {
			out = append(out, lineDir{"slack", unit(r, -1), math.Min(slack, (dMax-p[r])*in.Machines[r].Power)})
		}
		for rp := 0; rp < m; rp++ {
			if r != rp && p[rp] > 0 && p[r] < dMax {
				out = append(out, lineDir{"exchange", unit(r, rp), math.Min(p[rp]*in.Machines[rp].Power, (dMax-p[r])*in.Machines[r].Power)})
			}
		}
	}
	for k := 0; k < 8*m; k++ {
		d := make([]float64, m)
		mean := 0.0
		for r := range d {
			d[r] = src.Uniform(-1, 1)
			mean += d[r] / float64(m)
		}
		if slack <= tol {
			for r := range d {
				d[r] -= mean
			}
		}
		eMax, sum := math.Inf(1), 0.0
		for r, x := range d {
			pw := in.Machines[r].Power
			if x > 0 {
				eMax = math.Min(eMax, (dMax-p[r])*pw/x)
			} else if x < 0 {
				eMax = math.Min(eMax, p[r]*pw/-x)
			}
			sum += x
		}
		if slack > tol && sum > 0 {
			eMax = math.Min(eMax, slack/sum)
		}
		if numeric.IsFinite(eMax) && eMax > 0 {
			out = append(out, lineDir{"polish", d, eMax})
		}
	}
	return out
}

// TestDualBoundDecisions is a decision differential: every line search
// the bound closes, run in full without it, gains at most Tol. It runs at
// the naive profile, after one sweep, at the refined profile and at random
// budget profiles of the golden instances and the first 64 approx-large
// seed-1 draws, with the greedy's dual and with other multipliers, whose
// gap D(p) − V(p) the check must count. The check runs on one goroutine,
// so under -race, which only slows it, every eighth instance runs.
func TestDualBoundDecisions(t *testing.T) {
	src := rng.New(5, "core/dual-decisions")
	closed, open := 0, 0
	for i, ni := range dualInstances(t, 64) {
		if raceEnabled && i%8 != 0 {
			continue
		}
		name, in := ni.name, ni.in
		dMax := in.MaxDeadline()
		naive := NaiveProfile(in)
		one, _ := RefineProfile(in, naive, RefineOptions{MaxSweeps: 1})
		final, _ := RefineProfile(in, naive, RefineOptions{})
		profiles := []Profile{naive, one, final}
		for k := 0; k < 2; k++ {
			p := kinkProfile(src, in)
			if e := p.Energy(in); e > in.Budget {
				for r := range p {
					p[r] = min(dMax, p[r]*in.Budget/e)
				}
			}
			profiles = append(profiles, p)
		}
		for pi, p := range profiles {
			for _, kind := range []lambdaKind{greedyLambda, scaledLambda, sparseLambda} {
				rf, cur := priceAt(in, p, src, kind)
				iters := rf.opts.LineSearchIters
				move := func(dir []float64) func(Profile, float64) {
					return func(q Profile, e float64) {
						for r := range dir {
							q[r] = min(dMax, max(0, q[r]+e*dir[r]/in.Machines[r].Power))
						}
					}
				}
				for _, d := range lineDirs(src, in, p, rf.opts.Tol) {
					slope := 0.0
					for r, x := range d.dir {
						slope += rf.ascent(r, x/in.Machines[r].Power)
					}
					apply := move(d.dir)
					// With no ternary iterations a search the bound leaves
					// open makes its two final probes, and a closed one none.
					before := rf.alloc.probes
					rf.opts.LineSearchIters = 0
					rf.maximizeAlong(p, cur, apply, d.eMax, slope)
					rf.opts.LineSearchIters = iters
					if rf.alloc.probes != before {
						open++
						continue
					}
					closed++
					// An infinite slope leaves every search open.
					_, gain := rf.maximizeAlong(p, cur, apply, d.eMax, math.Inf(1))
					if gain > rf.opts.Tol {
						t.Errorf("%s: profile %d (λ kind %d): the bound closed a %s search that gains %g", name, pi, kind, d.kind, gain)
					}
				}
			}
		}
	}
	t.Logf("%d searches closed by the bound, %d left open", closed, open)
	if closed == 0 || open == 0 {
		t.Fatalf("closed %d, open %d: the differential needs both", closed, open)
	}
}

// TestSegOrderMatchesCompare holds segOrder to the cmp.Compare-based
// comparator it replaced, on random segment sets with tied slopes, signed
// zeros and NaN slopes: every pair compares with the same sign and the
// sorted lists are equal.
func TestSegOrderMatchesCompare(t *testing.T) {
	ref := func(a, b segRef) int {
		if c := cmp.Compare(b.slope, a.slope); c != 0 {
			return c
		}
		if c := cmp.Compare(a.task, b.task); c != 0 {
			return c
		}
		return cmp.Compare(a.pos, b.pos)
	}
	sign := func(x int) int { return cmp.Compare(x, 0) }
	src := rng.New(11, "core/seg-order")
	pool := []float64{math.NaN(), 0, math.Copysign(0, -1), 0.5, 0.5 * (1 + 1e-9), 1, 2, math.Inf(1)}
	for trial := 0; trial < 200; trial++ {
		n := 1 + src.Intn(40)
		segs := make([]segRef, n)
		for i := range segs {
			slope := pool[src.Intn(len(pool))]
			if src.Intn(3) == 0 {
				slope = src.Uniform(0, 2)
			}
			segs[i] = segRef{task: src.Intn(6), pos: i, slope: slope, width: 1}
		}
		for _, a := range segs {
			for _, b := range segs {
				if got, want := sign(segOrder(a, b)), sign(ref(a, b)); got != want {
					t.Fatalf("segOrder(%+v, %+v) = %d, cmp.Compare order gives %d", a, b, got, want)
				}
			}
		}
		got, want := slices.Clone(segs), slices.Clone(segs)
		slices.SortFunc(got, segOrder)
		slices.SortFunc(want, ref)
		for i := range got {
			if got[i].task != want[i].task || got[i].pos != want[i].pos {
				t.Fatalf("trial %d: sorted lists differ at %d: %+v vs %+v", trial, i, got[i], want[i])
			}
		}
	}
}
