package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/accuracy"
	"repro/internal/machine"
	"repro/internal/rng"
	"repro/internal/schedule"
	"repro/internal/task"
)

// mkTask builds a task with an explicit 2-segment accuracy function.
func mkTask(t *testing.T, name string, deadline float64, breaks, vals []float64) task.Task {
	t.Helper()
	return task.Task{Name: name, Deadline: deadline, Acc: accuracy.MustPWL(breaks, vals)}
}

func genInstance(t *testing.T, seed int64, n, m int, rho, beta, thetaMax float64) *task.Instance {
	t.Helper()
	cfg := task.DefaultConfig(n, rho, beta)
	cfg.ThetaMax = thetaMax
	in, err := task.GenerateUniformFleet(rng.New(seed, "core"), cfg, m)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestGreedySingleMachineHandCase(t *testing.T) {
	// Machine speed 100 GFLOP/s. Tasks (deadline order):
	//   t0: d=1, segments 0..50 slope 0.01, 50..100 slope 0.002
	//   t1: d=2, segments 0..50 slope 0.005, 50..100 slope 0.001
	// Capacities: C_0 = 100, C_1 = 200.
	tasks := []task.Task{
		mkTask(t, "t0", 1, []float64{0, 50, 100}, []float64{0, 0.5, 0.6}),
		mkTask(t, "t1", 2, []float64{0, 50, 100}, []float64{0, 0.25, 0.3}),
	}
	f := GreedyAllocate(tasks, []float64{100, 200}, GreedyOptions{})
	// Slope order: t0s0 (0.01), t1s0 (0.005), t0s1 (0.002), t1s1 (0.001).
	// t0s0: min(50, min(100,200)) = 50 -> f0=50, slack (50,150)
	// t1s0: min(50, 150) = 50 -> f1=50, slack (50,100)
	// t0s1: min(50, min(50,100)) = 50 -> f0=100, slack (0,50)
	// t1s1: min(50, 50) = 50 -> f1=100.
	if math.Abs(f[0]-100) > 1e-9 || math.Abs(f[1]-100) > 1e-9 {
		t.Errorf("f = %v, want [100 100]", f)
	}

	// Tighter capacity: C = (60, 120): t0s0 50, t1s0 50 (slack 10,20-> wait)
	f = GreedyAllocate(tasks, []float64{60, 120}, GreedyOptions{})
	// t0s0: min(50, 60)=50, slack (10,70); t1s0: min(50,70)=50, slack (10,20);
	// t0s1: min(50, min(10,20))=10 -> f0=60; slack (0,10); t1s1: min(50,10)=10 -> f1=60.
	if math.Abs(f[0]-60) > 1e-9 || math.Abs(f[1]-60) > 1e-9 {
		t.Errorf("f = %v, want [60 60]", f)
	}
}

func TestGreedyPrefixFeasibility(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		in := genInstance(t, int64(trial), 30, 1, 0.4, 1.0, 2.0)
		caps := Caps(in, Profile{in.MaxDeadline()})
		f := GreedyAllocate(in.Tasks, caps, GreedyOptions{})
		var prefix float64
		for j := range f {
			if f[j] < -1e-12 {
				t.Fatalf("negative work f[%d] = %g", j, f[j])
			}
			if f[j] > in.Tasks[j].FMax()+1e-6 {
				t.Fatalf("f[%d] = %g exceeds fmax %g", j, f[j], in.Tasks[j].FMax())
			}
			prefix += f[j]
			if prefix > caps[j]*(1+1e-9)+1e-6 {
				t.Fatalf("prefix %g exceeds cap %g at %d", prefix, caps[j], j)
			}
		}
	}
}

// TestGreedyScanMatchesSegtree checks the default latest-interval kernel
// against the paper's O(n²) slack scan (the name predates the kernel; the
// segment tree it once checked is gone).
func TestGreedyScanMatchesSegtree(t *testing.T) {
	agree := func(t *testing.T, label string, tasks []task.Task, caps []float64) {
		t.Helper()
		a := GreedyAllocate(tasks, caps, GreedyOptions{UseScan: true})
		b := GreedyAllocate(tasks, caps, GreedyOptions{})
		for j := range a {
			if math.Abs(a[j]-b[j]) > 1e-9*math.Max(1, a[j]) {
				t.Fatalf("%s: kernels disagree at task %d: scan %g, default %g", label, j, a[j], b[j])
			}
		}
	}
	src := rng.New(5, "greedy-kernels")
	// Random profiles whose entries often sit exactly at 0 or at d_max.
	for trial := 0; trial < 60; trial++ {
		m := 1 + trial%6
		n := 1 + src.Intn(200)
		in := genInstance(t, 100+int64(trial), n, m, src.Uniform(0.01, 1), 0.6, src.Uniform(1, 20))
		dMax := in.MaxDeadline()
		p := make(Profile, m)
		for r := range p {
			switch src.Intn(3) {
			case 0:
				p[r] = 0
			case 1:
				p[r] = dMax
			default:
				p[r] = src.Uniform(0, dMax)
			}
		}
		agree(t, fmt.Sprintf("profile trial %d (n=%d m=%d p=%v)", trial, n, m, p), in.Tasks, Caps(in, p))
	}
	// Non-monotone, negative and unbounded capacities: only their suffix
	// minimum, clamped at zero, binds.
	for trial := 0; trial < 60; trial++ {
		n := 1 + src.Intn(200)
		in := genInstance(t, 500+int64(trial), n, 1, 0.3, 1.0, 5)
		scale := in.Tasks[0].FMax() * float64(n) / 4
		caps := make([]float64, n)
		for j := range caps {
			caps[j] = src.Uniform(-0.2, 1) * scale
			if src.Intn(8) == 0 {
				caps[j] = math.Inf(1)
			}
		}
		agree(t, fmt.Sprintf("caps trial %d (n=%d)", trial, n), in.Tasks, caps)
	}
}

func TestGreedyPanicsOnBadCaps(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched caps length should panic")
		}
	}()
	GreedyAllocate([]task.Task{mkTask(t, "x", 1, []float64{0, 1}, []float64{0, 0.5})}, nil, GreedyOptions{})
}

func TestCapsMonotone(t *testing.T) {
	in := genInstance(t, 9, 20, 4, 0.3, 0.5, 2.0)
	caps := Caps(in, NaiveProfile(in))
	for j := 1; j < len(caps); j++ {
		if caps[j] < caps[j-1]-1e-9 {
			t.Fatalf("caps not monotone at %d: %g < %g", j, caps[j], caps[j-1])
		}
	}
}

func TestNaiveProfileProperties(t *testing.T) {
	in := genInstance(t, 10, 20, 5, 0.3, 0.4, 1.0)
	p := NaiveProfile(in)
	if err := p.Validate(in, 1e-9); err != nil {
		t.Fatal(err)
	}
	// Budget either exhausted or every machine at d_max.
	e := p.Energy(in)
	dMax := in.MaxDeadline()
	allFull := true
	for _, v := range p {
		if v < dMax-1e-9 {
			allFull = false
		}
	}
	if !allFull && math.Abs(e-in.Budget) > 1e-6*in.Budget {
		t.Errorf("naive profile wastes budget: %g of %g", e, in.Budget)
	}
	// Machines are filled in efficiency order: a machine with positive
	// profile < d_max implies every more efficient machine is at d_max.
	order := in.Machines.ByEfficiencyDesc()
	for i, r := range order {
		if p[r] > 0 && p[r] < dMax-1e-9 {
			for _, earlier := range order[:i] {
				if p[earlier] < dMax-1e-9 {
					t.Errorf("machine %d partially filled while more efficient %d not full", r, earlier)
				}
			}
		}
	}
}

func TestProfileValidateErrors(t *testing.T) {
	in := genInstance(t, 11, 5, 2, 0.5, 0.5, 1.0)
	if err := (Profile{1}).Validate(in, 1e-9); err == nil {
		t.Error("wrong length accepted")
	}
	if err := (Profile{-1, 0}).Validate(in, 1e-9); err == nil {
		t.Error("negative entry accepted")
	}
	huge := Profile{in.MaxDeadline() * 2, 0}
	if err := huge.Validate(in, 1e-9); err == nil {
		t.Error("over-d_max entry accepted")
	}
	overBudget := Profile{in.MaxDeadline(), in.MaxDeadline()}
	in.Budget = 0.001
	if err := overBudget.Validate(in, 1e-9); err == nil {
		t.Error("over-budget profile accepted")
	}
}

func TestSolveFRSolutionConsistency(t *testing.T) {
	in := genInstance(t, 31, 25, 3, 0.3, 0.4, 5.0)
	sol, err := SolveFR(in, FROptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sol.Profile.Validate(in, 1e-6); err != nil {
		t.Errorf("profile invalid: %v", err)
	}
	if err := sol.Schedule.Validate(in, schedule.ValidateOptions{}); err != nil {
		t.Errorf("schedule invalid: %v", err)
	}
	// Work vector matches the schedule and the declared accuracy.
	for j := range sol.Work {
		if w := sol.Schedule.Work(in, j); math.Abs(w-sol.Work[j]) > 1e-6*math.Max(1, sol.Work[j]) {
			t.Errorf("task %d: schedule work %g != f_j %g", j, w, sol.Work[j])
		}
	}
	if acc := sol.Schedule.TotalAccuracy(in); math.Abs(acc-sol.TotalAccuracy) > 1e-6*math.Max(1, acc) {
		t.Errorf("accuracy mismatch: schedule %g vs declared %g", acc, sol.TotalAccuracy)
	}
	// Machine loads never exceed the profile.
	for r, l := range sol.Schedule.Profile() {
		if l > sol.Profile[r]*(1+1e-9)+1e-9 {
			t.Errorf("machine %d load %g exceeds profile %g", r, l, sol.Profile[r])
		}
	}
}

func TestRefineNeverHurts(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		in := genInstance(t, 300+int64(trial), 20, 3, 0.1, 0.3, 10)
		naive, err := SolveFR(in, FROptions{SkipRefine: true})
		if err != nil {
			t.Fatal(err)
		}
		refined, err := SolveFR(in, FROptions{})
		if err != nil {
			t.Fatal(err)
		}
		if refined.TotalAccuracy < naive.TotalAccuracy-1e-9 {
			t.Errorf("trial %d: refine hurt: %g -> %g", trial, naive.TotalAccuracy, refined.TotalAccuracy)
		}
	}
}

// TestRefineImprovesSkewedScenario reproduces the paper's Fig 6b setting in
// miniature: early deadline tasks are highly efficient, so the naive
// profile (all energy on the efficient machine) is suboptimal and the
// refinement must shift work onto the fast machine.
func TestRefineImprovesSkewedScenario(t *testing.T) {
	cfg := task.DefaultConfig(40, 0.01, 0.3)
	cfg.Scenario = task.EarliestHighEfficient
	cfg.ThetaMin, cfg.ThetaMax = 0.1, 1.0
	cfg.EarlyFraction = 0.3
	cfg.EarlyThetaMin, cfg.EarlyThetaMax = 4.0, 4.9
	in, err := task.Generate(rng.New(77, "fig6b"), cfg, machine.TwoMachineScenario())
	if err != nil {
		t.Fatal(err)
	}
	naive, err := SolveFR(in, FROptions{SkipRefine: true})
	if err != nil {
		t.Fatal(err)
	}
	refined, err := SolveFR(in, FROptions{})
	if err != nil {
		t.Fatal(err)
	}
	if refined.TotalAccuracy <= naive.TotalAccuracy+1e-9 {
		t.Errorf("expected strict improvement in skewed scenario: naive %g, refined %g",
			naive.TotalAccuracy, refined.TotalAccuracy)
	}
	// The refined profile must give the fast machine (index 1) time that
	// the naive profile did not.
	naiveP := NaiveProfile(in)
	if refined.Profile[1] <= naiveP[1]+1e-9 {
		t.Errorf("refined profile did not shift work to the fast machine: naive %v, refined %v",
			naiveP, refined.Profile)
	}
}

func TestSplitPropertyRandom(t *testing.T) {
	for trial := 0; trial < 12; trial++ {
		in := genInstance(t, 400+int64(trial), 30, 4, 0.2, 0.5, 8)
		p := NaiveProfile(in)
		_, f := Value(in, p, GreedyOptions{})
		s, err := Split(in, p, f)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := s.Validate(in, schedule.ValidateOptions{}); err != nil {
			t.Fatalf("trial %d: split schedule invalid: %v", trial, err)
		}
		for r := 0; r < in.M(); r++ {
			if l := s.MachineLoad(r); l > p[r]*(1+1e-9)+1e-9 {
				t.Fatalf("trial %d: machine %d load %g exceeds profile %g", trial, r, l, p[r])
			}
		}
	}
}

func TestSplitRejectsInfeasibleWork(t *testing.T) {
	in := genInstance(t, 50, 5, 2, 0.5, 0.5, 1.0)
	p := Profile{0, 0} // no machine time at all
	f := make([]float64, in.N())
	f[0] = 10
	if _, err := Split(in, p, f); err == nil {
		t.Error("expected error for unplaceable work")
	}
	if _, err := Split(in, p, []float64{1}); err == nil {
		t.Error("expected error for wrong work length")
	}
}

func TestSolveFRRejectsInvalidInstance(t *testing.T) {
	in := genInstance(t, 51, 5, 2, 0.5, 0.5, 1.0)
	in.Budget = -5
	if _, err := SolveFR(in, FROptions{}); err == nil {
		t.Error("invalid instance accepted")
	}
}

func TestZeroBudgetYieldsAMin(t *testing.T) {
	in := genInstance(t, 52, 8, 2, 0.5, 0, 1.0)
	in.Budget = 0
	sol, err := SolveFR(in, FROptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for _, tk := range in.Tasks {
		want += tk.Acc.AMin()
	}
	if math.Abs(sol.TotalAccuracy-want) > 1e-9 {
		t.Errorf("accuracy %g, want Σ a_min = %g", sol.TotalAccuracy, want)
	}
}

func TestGenerousBudgetReachesAMax(t *testing.T) {
	// With beta = 1 and loose deadlines every task should be fully
	// processed (the paper's Fig 5 right edge).
	in := genInstance(t, 53, 10, 2, 1.0, 1.0, 1.0)
	sol, err := SolveFR(in, FROptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for _, tk := range in.Tasks {
		want += tk.Acc.AMax()
	}
	if math.Abs(sol.TotalAccuracy-want) > 1e-6*want {
		t.Errorf("accuracy %g, want Σ a_max = %g", sol.TotalAccuracy, want)
	}
}
