package incremental

// Stream-vs-cold differential suite: replayed event traces must keep the
// warm-started engine, the cold-solving engine and a from-scratch solve of
// the live instance in agreement after every event, and the warm path must
// stay feasible and bitwise deterministic.

import (
	"math"
	"sort"
	"testing"

	"repro/internal/accuracy"
	"repro/internal/bruteforce"
	"repro/internal/machine"
	"repro/internal/mip"
	"repro/internal/model"
	"repro/internal/numeric"
	"repro/internal/task"
)

// oracle mirrors an event stream into a compact live instance for the
// from-scratch reference solve.
type oracle struct {
	tasks  map[string]*oTask
	machs  map[string]machine.Machine
	tSeq   []string // arrival order (live ids only, compacted lazily)
	mSeq   []string
	budget float64
}

type oTask struct {
	deadline float64
	acc      *accuracy.PWL
	seq      int
}

func newOracle() *oracle {
	return &oracle{tasks: map[string]*oTask{}, machs: map[string]machine.Machine{}}
}

func (o *oracle) apply(ev Event) {
	switch ev.Kind {
	case TaskArrive:
		o.tasks[ev.Task] = &oTask{deadline: ev.Deadline, acc: ev.Acc, seq: len(o.tSeq)}
		o.tSeq = append(o.tSeq, ev.Task)
	case TaskDepart:
		delete(o.tasks, ev.Task)
	case MachineJoin:
		o.machs[ev.Machine] = machine.Machine{Name: ev.Machine, Speed: ev.Speed, Power: ev.Power}
		o.mSeq = append(o.mSeq, ev.Machine)
	case MachineLeave:
		delete(o.machs, ev.Machine)
	case BudgetChange:
		o.budget = ev.Budget
	}
}

// instance builds the live task.Instance with the engine's (deadline,
// arrival) task order and join-order machines. Nil when empty.
func (o *oracle) instance() *task.Instance {
	if len(o.tasks) == 0 || len(o.machs) == 0 {
		return nil
	}
	in := &task.Instance{Budget: o.budget}
	for _, id := range o.tSeq {
		if tk, ok := o.tasks[id]; ok {
			in.Tasks = append(in.Tasks, task.Task{Name: id, Deadline: tk.deadline, Acc: tk.acc})
		}
	}
	sort.SliceStable(in.Tasks, func(a, b int) bool { return in.Tasks[a].Deadline < in.Tasks[b].Deadline })
	for _, id := range o.mSeq {
		if mc, ok := o.machs[id]; ok {
			in.Machines = append(in.Machines, mc)
		}
	}
	return in
}

// solveScratch solves the live instance from scratch and returns the total
// accuracy (the MIP's maximisation objective).
func solveScratch(t *testing.T, in *task.Instance) float64 {
	t.Helper()
	mm := model.BuildMIP(in)
	res, err := mip.Solve(mm.Prob, mip.Options{Rounding: mm.RoundingHook()})
	if err != nil {
		t.Fatalf("scratch solve: %v", err)
	}
	if res.Status != mip.Optimal {
		t.Fatalf("scratch solve status %v", res.Status)
	}
	return res.Objective
}

// checkFeasible asserts the engine solution is a feasible DSCT-EA schedule
// of the oracle's live instance and that TotalAccuracy is consistent with
// the reported times.
func checkFeasible(t *testing.T, o *oracle, sol *Solution) {
	t.Helper()
	const tol = 1e-6
	if len(sol.Times) != len(o.tasks) {
		t.Fatalf("solution covers %d tasks, %d live", len(sol.Times), len(o.tasks))
	}
	ids := make([]string, 0, len(o.tasks))
	for id := range o.tasks {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	perMachine := map[string][]string{} // machine -> tasks with time on it
	var totalAcc, totalEnergy float64
	for _, id := range ids {
		tk := o.tasks[id]
		times, ok := sol.Times[id]
		if !ok {
			t.Fatalf("task %q missing from solution", id)
		}
		asg := sol.Assigned[id]
		if _, live := o.machs[asg]; !live {
			t.Fatalf("task %q assigned to non-live machine %q", id, asg)
		}
		mids := make([]string, 0, len(times))
		for mid := range times {
			mids = append(mids, mid)
		}
		sort.Strings(mids)
		var flops float64
		for _, mid := range mids {
			tt := times[mid]
			mc, live := o.machs[mid]
			if !live {
				if tt > tol {
					t.Fatalf("task %q runs %g s on departed machine %q", id, tt, mid)
				}
				continue
			}
			if tt > tol && mid != asg {
				t.Fatalf("task %q runs %g s on %q but is assigned to %q", id, tt, mid, asg)
			}
			if tt > tol {
				if tt > tk.deadline+tol {
					t.Fatalf("task %q time %g exceeds deadline %g", id, tt, tk.deadline)
				}
				perMachine[mid] = append(perMachine[mid], id)
			}
			flops += mc.Speed * tt
			totalEnergy += mc.Power * tt
		}
		totalAcc += tk.acc.Eval(flops)
	}
	// Deadline staircases: per machine, the prefix completion times in
	// deadline order must respect every deadline.
	for mid, ids := range perMachine {
		sort.Slice(ids, func(a, b int) bool { return o.tasks[ids[a]].deadline < o.tasks[ids[b]].deadline })
		var sum float64
		for _, id := range ids {
			sum += sol.Times[id][mid]
			if sum > o.tasks[id].deadline+tol {
				t.Fatalf("machine %q: completion %g exceeds deadline %g of %q", mid, sum, o.tasks[id].deadline, id)
			}
		}
	}
	if totalEnergy > o.budget+tol*(1+o.budget) {
		t.Fatalf("energy %g exceeds budget %g", totalEnergy, o.budget)
	}
	if math.Abs(totalAcc-sol.TotalAccuracy) > tol*(1+math.Abs(totalAcc)) {
		t.Fatalf("reported accuracy %g, recomputed %g", sol.TotalAccuracy, totalAcc)
	}
}

func genTestTrace(t *testing.T, seed int64, events int) []Event {
	t.Helper()
	cfg := DefaultTraceConfig(seed, events, 5, 2)
	cfg.MaxTasks = 6
	cfg.MaxMachines = 3
	cfg.Segments = 3
	trace, err := GenTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return trace
}

// TestStreamVsCold is the differential gate: after every event of a
// 220-event trace the warm engine, the cold engine and a from-scratch
// solve of the live instance must agree on the optimum, and the warm
// engine's schedule must be feasible. Both engines' accuracies must also
// match the best assignment of the brute-force oracle, which shares no
// code with the engine, within 1e-12 relative: the trace keeps at most 6
// tasks on 3 machines, so the oracle scores every assignment.
func TestStreamVsCold(t *testing.T) {
	trace := genTestTrace(t, 41, 220)
	warm := New(Options{})
	cold := New(Options{DisableWarm: true})
	o := newOracle()
	for i, ev := range trace {
		o.apply(ev)
		ws, err := warm.Apply(ev)
		if err != nil {
			t.Fatalf("event %d (%s): warm: %v", i, ev.Kind, err)
		}
		cs, err := cold.Apply(ev)
		if err != nil {
			t.Fatalf("event %d (%s): cold: %v", i, ev.Kind, err)
		}
		in := o.instance()
		if in == nil {
			continue
		}
		ref := solveScratch(t, in)
		if ws.Status != mip.Optimal || cs.Status != mip.Optimal {
			t.Fatalf("event %d: warm status %v, cold status %v", i, ws.Status, cs.Status)
		}
		best := bestAssignment(in)
		if !numeric.Close(ws.TotalAccuracy, best, 1e-12) || !numeric.Close(cs.TotalAccuracy, best, 1e-12) {
			t.Fatalf("event %d (%s): warm accuracy %.17g, cold %.17g, best assignment %.17g", i, ev.Kind, ws.TotalAccuracy, cs.TotalAccuracy, best)
		}
		tol := 1e-6 * (1 + math.Abs(ref))
		if math.Abs(ws.TotalAccuracy-ref) > tol {
			t.Fatalf("event %d (%s): warm accuracy %.12g, scratch %.12g", i, ev.Kind, ws.TotalAccuracy, ref)
		}
		if math.Abs(cs.TotalAccuracy-ref) > tol {
			t.Fatalf("event %d (%s): cold accuracy %.12g, scratch %.12g", i, ev.Kind, cs.TotalAccuracy, ref)
		}
		checkFeasible(t, o, ws)
	}
	st := warm.Stats()
	if st.WarmResolves == 0 {
		t.Error("warm engine never imported warm state")
	}
	if st.Solves != st.WarmResolves+st.ColdResolves {
		t.Errorf("solve accounting: %d != %d warm + %d cold", st.Solves, st.WarmResolves, st.ColdResolves)
	}
	if cold.Stats().WarmResolves != 0 {
		t.Errorf("cold engine reported %d warm re-solves", cold.Stats().WarmResolves)
	}
}

// bestAssignment is the brute-force optimum of in: the best
// bruteforce.ScanAssignment score over every task-to-machine assignment.
func bestAssignment(in *task.Instance) float64 {
	best := math.Inf(-1)
	bruteforce.ForEachAssignment(in.N(), in.M(), func(assign []int) {
		best = math.Max(best, bruteforce.ScanAssignment(in.Tasks, in.Machines, in.Budget, assign))
	})
	return best
}

// TestContendedWarmUpFlush replays a flush that once failed: the warm-up
// of a contended 24-task, 3-machine stream (DeadlineScale 3, BudgetScale
// 5) posted in one batch under a 16-node cap. Its root relaxation kept
// cut rows, and the root node's cold re-solve of them failed with a
// singular basis, so the flush returned an error instead of a schedule.
func TestContendedWarmUpFlush(t *testing.T) {
	cfg := DefaultTraceConfig(45070, 36, 24, 3)
	cfg.DeadlineScale, cfg.BudgetScale = 3, 5
	trace, err := GenTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Options{BatchWindow: math.MaxInt, MaxNodes: 16})
	o := newOracle()
	for i, ev := range trace[:28] {
		o.apply(ev)
		if _, err := e.Post(ev); err != nil {
			t.Fatalf("event %d (%s): %v", i, ev.Kind, err)
		}
	}
	sol, err := e.Flush()
	if err != nil {
		t.Fatalf("warm-up flush: %v", err)
	}
	if sol.Status != mip.Optimal && sol.Status != mip.Feasible {
		t.Fatalf("warm-up flush published no schedule: status %v", sol.Status)
	}
	checkFeasible(t, o, sol)
}

// TestBatchWindow checks coalescing: posts buffer until the window fills,
// and a manual Flush drains early.
func TestBatchWindow(t *testing.T) {
	trace := genTestTrace(t, 47, 20)
	e := New(Options{BatchWindow: 4})
	flushes := 0
	for i, ev := range trace {
		sol, err := e.Post(ev)
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if sol != nil {
			flushes++
			if e.Pending() != 0 {
				t.Fatalf("event %d: %d pending after flush", i, e.Pending())
			}
		}
	}
	if _, err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Events != len(trace) {
		t.Errorf("events = %d, want %d", st.Events, len(trace))
	}
	if st.Batches >= len(trace) || st.Batches == 0 {
		t.Errorf("batches = %d, want coalescing (0 < batches < %d)", st.Batches, len(trace))
	}
	if flushes != len(trace)/4 {
		t.Errorf("auto-flushes = %d, want %d", flushes, len(trace)/4)
	}
	// Batched and per-event replay agree on the final state.
	single := New(Options{})
	var last *Solution
	for _, ev := range trace {
		var err error
		if last, err = single.Apply(ev); err != nil {
			t.Fatal(err)
		}
	}
	if math.Abs(e.Solution().TotalAccuracy-last.TotalAccuracy) > 1e-6 {
		t.Errorf("batched accuracy %g, per-event %g", e.Solution().TotalAccuracy, last.TotalAccuracy)
	}
}

// TestPostValidation exercises the projection-level event validation.
func TestPostValidation(t *testing.T) {
	e := New(Options{Budget: 10})
	pwl, err := accuracy.FitChord(accuracy.NewExponential(1.0), 3)
	if err != nil {
		t.Fatal(err)
	}
	must := func(ev Event) {
		t.Helper()
		if _, err := e.Post(ev); err != nil {
			t.Fatal(err)
		}
	}
	reject := func(name string, ev Event) {
		t.Helper()
		if _, err := e.Post(ev); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	must(Event{Kind: MachineJoin, Machine: "m0", Speed: 5_000, Power: 150})
	must(Event{Kind: TaskArrive, Task: "t0", Deadline: 1, Acc: pwl})
	reject("duplicate task", Event{Kind: TaskArrive, Task: "t0", Deadline: 1, Acc: pwl})
	reject("duplicate machine", Event{Kind: MachineJoin, Machine: "m0", Speed: 1, Power: 1})
	reject("unknown depart", Event{Kind: TaskDepart, Task: "zz"})
	reject("unknown leave", Event{Kind: MachineLeave, Machine: "zz"})
	reject("empty task id", Event{Kind: TaskArrive, Deadline: 1, Acc: pwl})
	reject("bad deadline", Event{Kind: TaskArrive, Task: "t1", Deadline: -1, Acc: pwl})
	reject("bad curve", Event{Kind: TaskArrive, Task: "t1", Deadline: 1, Breaks: []float64{1, 0}, Values: []float64{0, 1}})
	reject("bad speed", Event{Kind: MachineJoin, Machine: "m1", Speed: -1, Power: 1})
	reject("negative budget", Event{Kind: BudgetChange, Budget: -5})
	reject("nan budget", Event{Kind: BudgetChange, Budget: math.NaN()})
	reject("unknown kind", Event{Kind: "frobnicate"})
	// Re-arrival after departure is legal and creates a fresh task.
	must(Event{Kind: TaskDepart, Task: "t0"})
	must(Event{Kind: TaskArrive, Task: "t0", Deadline: 2, Acc: pwl})
	if e.LiveTasks() != 1 || e.LiveMachines() != 1 {
		t.Errorf("live = %d tasks %d machines, want 1/1", e.LiveTasks(), e.LiveMachines())
	}
}

// TestEngineStats sanity-checks the derived stats accessors.
func TestEngineStats(t *testing.T) {
	var zero Stats
	if zero.WarmHitRate() != 0 || zero.EventsPerSec() != 0 {
		t.Error("zero stats must derive zeros")
	}
	trace := genTestTrace(t, 59, 30)
	e := New(Options{})
	for _, ev := range trace {
		if _, err := e.Apply(ev); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.Solves != len(trace) {
		t.Errorf("solves = %d, want %d (per-event flushing)", st.Solves, len(trace))
	}
	if st.ColdResolves != 1 {
		t.Errorf("cold re-solves = %d, want exactly the first", st.ColdResolves)
	}
	if got := st.WarmHitRate(); math.Abs(got-float64(st.Solves-1)/float64(st.Solves)) > 1e-12 {
		t.Errorf("warm hit rate = %g", got)
	}
	if st.SolveTime <= 0 || st.LastSolve <= 0 || st.LastSolve > st.SolveTime {
		t.Errorf("degenerate timings: %+v", st)
	}
	if st.EventsPerSec() <= 0 {
		t.Error("events/sec not positive after solves")
	}
}
