package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"

	"repro/internal/incremental"
	"repro/internal/machine"
	"repro/internal/mip"
	"repro/internal/schedule"
	"repro/internal/task"
)

// daemon-churn: the dsctd -batch 1 loop. Each round replays one
// incremental.GenTrace stream through an Engine whose warm-up prefix
// (machine joins, the budget, the initial tasks) was posted and flushed
// off the clock; every further event is one request, Post then Flush.
const (
	churnTasks    = 24 // initial live tasks
	churnMachines = 3  // initial live machines
	churnPrefix   = churnMachines + 1 + churnTasks
	// Slack deadlines and an ample budget: the steady state where a flush
	// is a warm LP re-solve and trees are rare (see NOTES.md for why not
	// DeadlineScale 3, BudgetScale 5).
	churnDeadlineScale = 20
	churnBudgetScale   = 50
	// churnTraces streams of churnEvents measured events each: one trace's
	// flush costs differ from another's by an order of magnitude, and a
	// costly trace stays costly for most of its events, so a run averages
	// over many short streams, never replaying one (see NOTES.md).
	churnTraces = 4096
	churnEvents = 8
	// churnWindow leading streams always run whole: the count window.
	churnWindow = 8
	// churnNodeCap bounds each re-solve's tree (Engine MaxNodes), the
	// per-flush budget a daemon needs: a flush that reaches it publishes
	// its incumbent with status Feasible.
	churnNodeCap = 16
	// churnColdCap is the node cap of the client's cold fallback solve.
	churnColdCap = 1024
	// churnSLO is the flush latency limit of slo_miss_ratio.
	churnSLO = 0.025
	// churnTol is the feasibility tolerance of the published schedules:
	// the engine's LP tolerances leave the energy row up to a scaled
	// ~4e-6 over budget, beyond schedule.DefaultTol.
	churnTol = 1e-5
)

type daemonChurn struct {
	traces [][]incremental.Event
	ready  *incremental.Engine // round 0's engine, built in set-up
	readyM *mirror
	trace  []incremental.Event
	eng    *incremental.Engine
	mir    *mirror
	stats  incremental.Stats // engine stats before the current request
	sol    *incremental.Solution
}

func (w *daemonChurn) describe() string {
	return fmt.Sprintf("%d traces of %d initial tasks on %d machines, DeadlineScale %d, BudgetScale %d, %d events measured per trace, node cap %d",
		len(w.traces), churnTasks, churnMachines, churnDeadlineScale, churnBudgetScale, churnEvents, churnNodeCap)
}

func (w *daemonChurn) window() int { return churnWindow }

func (w *daemonChurn) slo() (float64, string) {
	return churnSLO, "above the ~1 ms warm LP re-solves, below the flushes that branch"
}

// setup generates the round traces and builds round 0's engine; the
// warm-up flush is this workload's model build. Later rounds build their
// engine off the clock in startRound.
func (w *daemonChurn) setup(seed int64, tr *tracer) error {
	w.traces = make([][]incremental.Event, churnTraces)
	for k := range w.traces {
		cfg := incremental.DefaultTraceConfig(seed*churnTraces+int64(k), churnPrefix+churnEvents, churnTasks, churnMachines)
		cfg.DeadlineScale = churnDeadlineScale
		cfg.BudgetScale = churnBudgetScale
		t, err := incremental.GenTrace(cfg)
		if err != nil {
			return err
		}
		w.traces[k] = t
	}
	var err error
	tr.do("incremental.warmup", func() { w.ready, w.readyM, err = warmUp(w.traces[0]) })
	return err
}

// warmUp builds an engine and its mirror through a trace's warm-up prefix.
func warmUp(trace []incremental.Event) (*incremental.Engine, *mirror, error) {
	eng := incremental.New(incremental.Options{Workers: 1, BatchWindow: math.MaxInt, MaxNodes: churnNodeCap})
	mir := newMirror()
	for _, ev := range trace[:churnPrefix] {
		if _, err := eng.Post(ev); err != nil {
			return nil, nil, fmt.Errorf("warm-up event %s: %w", ev.Kind, err)
		}
		mir.apply(ev)
	}
	if _, err := eng.Flush(); err != nil {
		return nil, nil, fmt.Errorf("warm-up flush: %w", err)
	}
	return eng, mir, nil
}

// coldSolve solves a live state, given as events, on a fresh engine with
// cold starts and a larger node cap: the client's fallback when a capped
// warm flush ends without an incumbent.
func coldSolve(evs []incremental.Event) (*incremental.Solution, error) {
	eng := incremental.New(incremental.Options{Workers: 1, BatchWindow: math.MaxInt, DisableWarm: true, MaxNodes: churnColdCap})
	for _, ev := range evs {
		if _, err := eng.Post(ev); err != nil {
			return nil, fmt.Errorf("replay event %s: %w", ev.Kind, err)
		}
	}
	return eng.Flush()
}

// startRound takes the engine set-up built for round 0, or builds round
// k's engine off the clock.
func (w *daemonChurn) startRound(k int, tr *tracer) (int, error) {
	w.trace = w.traces[k%len(w.traces)]
	if k == 0 && w.ready != nil {
		w.eng, w.mir = w.ready, w.readyM
		w.ready, w.readyM = nil, nil
	} else {
		var err error
		if w.eng, w.mir, err = warmUp(w.trace); err != nil {
			return 0, err
		}
	}
	w.stats = w.eng.Stats()
	return len(w.trace) - churnPrefix, nil
}

func (w *daemonChurn) serve(i int, tr *tracer, c counts) outcome {
	ev := w.trace[churnPrefix+i]
	var err error
	w.sol = nil
	tr.do("incremental.post", func() { _, err = w.eng.Post(ev) })
	if err != nil {
		return outcome{failed: fmt.Sprintf("post %s: %v", ev.Kind, err)}
	}
	tr.do("incremental.flush", func() { w.sol, err = w.eng.Flush() })
	st := w.eng.Stats()
	prev := w.stats
	w.stats = st
	if tr != nil {
		tr.sum("incremental.solve_s", (st.SolveTime - prev.SolveTime).Seconds())
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		tr.sample("incremental.heap_mb", float64(ms.HeapAlloc)/(1<<20))
	}
	c.add("incremental.solves", int64(st.Solves-prev.Solves))
	c.add("incremental.warm_resolves", int64(st.WarmResolves-prev.WarmResolves))
	c.add("incremental.nodes", int64(st.Nodes-prev.Nodes))
	c.add("incremental.inherit_fallbacks", int64(st.InheritFallbacks-prev.InheritFallbacks))
	c.add("incremental.cuts_carried", int64(st.CutsCarried))
	if err != nil {
		return outcome{failed: fmt.Sprintf("flush %s: %v", ev.Kind, err)}
	}
	if w.sol.Status == mip.Feasible {
		c.add("incremental.capped", 1)
	}
	retried := false
	if w.sol.Status == mip.NoIncumbent {
		// The capped warm search ended without an incumbent (about 1 flush
		// in 200,000). The client rebuilds the live state on a cold engine
		// from its own record of the stream, within the same request.
		retried = true
		tr.do("incremental.cold_fallback", func() { w.sol, err = coldSolve(append(w.mir.replay(), ev)) })
		if err != nil {
			return outcome{failed: fmt.Sprintf("flush %s: cold fallback: %v", ev.Kind, err), retried: true}
		}
	}
	live := w.eng.LiveTasks()
	if churnPrefix+i == len(w.trace)-1 {
		created, alive := w.mir.columns()
		c.add("incremental.cols_created", int64(created))
		c.add("incremental.cols_dead", int64(created-alive))
	}
	switch {
	case w.sol.Status != mip.Optimal && w.sol.Status != mip.Feasible:
		return outcome{failed: fmt.Sprintf("flush %s: no incumbent (%v)", ev.Kind, w.sol.Status)}
	case live > 0 && len(w.sol.Times) == 0:
		return outcome{failed: fmt.Sprintf("flush %s: empty schedule for %d live tasks", ev.Kind, live)}
	case live == 0:
		return outcome{failed: fmt.Sprintf("flush %s: no live tasks", ev.Kind), retried: retried}
	}
	return outcome{accuracy: w.sol.TotalAccuracy / float64(live), retried: retried}
}

// check rebuilds the live instance from the generated events and validates
// the published schedule against it.
func (w *daemonChurn) check(i int, o outcome) error {
	w.mir.apply(w.trace[churnPrefix+i])
	if o.failed != "" {
		return nil
	}
	in, s, err := w.mir.schedule(w.sol)
	if err != nil {
		return err
	}
	if err := s.Validate(in, schedule.ValidateOptions{Tol: churnTol}); err != nil {
		return fmt.Errorf("event %d: %v", i, err)
	}
	if err := integral(s); err != nil {
		return fmt.Errorf("event %d: %v", i, err)
	}
	if got := s.TotalAccuracy(in); !relClose(got, w.sol.TotalAccuracy, 1e-6) {
		return fmt.Errorf("event %d: schedule accuracy %.9g but engine reports %.9g", i, got, w.sol.TotalAccuracy)
	}
	return nil
}

// mirror replays the event stream into the live task.Instance the engine's
// schedule must be feasible for, independently of the engine's state. It
// also counts the columns the engine's never-delete discipline creates:
// an arrival adds z_j plus t_jr, x_jr for every live machine, a join adds
// t_jr, x_jr for every live task.
type mirror struct {
	tasks   map[string]task.Task
	machs   map[string]machine.Machine
	tOrder  []string // arrival order
	mOrder  []string // join order
	budget  float64
	created int
}

func newMirror() *mirror {
	return &mirror{tasks: map[string]task.Task{}, machs: map[string]machine.Machine{}}
}

func (m *mirror) apply(ev incremental.Event) {
	switch ev.Kind {
	case incremental.TaskArrive:
		// GenTrace attaches the fitted curve to every arrival.
		m.tasks[ev.Task] = task.Task{Name: ev.Task, Deadline: ev.Deadline, Acc: ev.Acc}
		m.tOrder = append(m.tOrder, ev.Task)
		m.created += 1 + 2*len(m.machs)
	case incremental.TaskDepart:
		delete(m.tasks, ev.Task)
	case incremental.MachineJoin:
		m.machs[ev.Machine] = machine.Machine{Name: ev.Machine, Speed: ev.Speed, Power: ev.Power}
		m.mOrder = append(m.mOrder, ev.Machine)
		m.created += 2 * len(m.tasks)
	case incremental.MachineLeave:
		delete(m.machs, ev.Machine)
	case incremental.BudgetChange:
		m.budget = ev.Budget
	}
}

// replay is the live state as a fresh event stream: machine joins, the
// budget, then task arrivals, each in the order the stream introduced it.
func (m *mirror) replay() []incremental.Event {
	var evs []incremental.Event
	seen := map[string]bool{}
	for _, id := range m.mOrder {
		if mc, ok := m.machs[id]; ok && !seen[id] {
			seen[id] = true
			evs = append(evs, incremental.Event{Kind: incremental.MachineJoin, Machine: id, Speed: mc.Speed, Power: mc.Power})
		}
	}
	evs = append(evs, incremental.Event{Kind: incremental.BudgetChange, Budget: m.budget})
	seen = map[string]bool{}
	for _, id := range m.tOrder {
		if tk, ok := m.tasks[id]; ok && !seen[id] {
			seen[id] = true
			evs = append(evs, incremental.Event{Kind: incremental.TaskArrive, Task: id, Deadline: tk.Deadline, Acc: tk.Acc})
		}
	}
	return evs
}

// columns returns the columns created so far and those still live.
func (m *mirror) columns() (created, live int) {
	return m.created, len(m.tasks) * (1 + 2*len(m.machs))
}

// schedule builds the live instance (tasks by deadline, then arrival;
// machines by join order) and lays the engine's solution out on it.
func (m *mirror) schedule(sol *incremental.Solution) (*task.Instance, *schedule.Schedule, error) {
	in := &task.Instance{Budget: m.budget}
	for _, id := range m.tOrder {
		if tk, ok := m.tasks[id]; ok {
			in.Tasks = append(in.Tasks, tk)
		}
	}
	sort.SliceStable(in.Tasks, func(a, b int) bool { return in.Tasks[a].Deadline < in.Tasks[b].Deadline })
	for _, id := range m.mOrder {
		if mc, ok := m.machs[id]; ok {
			in.Machines = append(in.Machines, mc)
		}
	}
	if len(sol.Times) != len(in.Tasks) {
		return nil, nil, fmt.Errorf("schedule covers %d tasks, %d live", len(sol.Times), len(in.Tasks))
	}
	s := schedule.New(in.N(), in.M())
	for j, tk := range in.Tasks {
		times, ok := sol.Times[tk.Name]
		if !ok {
			return nil, nil, fmt.Errorf("live task %q missing from the schedule", tk.Name)
		}
		for id := range times {
			if _, live := m.machs[id]; !live {
				return nil, nil, fmt.Errorf("task %q scheduled on departed machine %q", tk.Name, id)
			}
		}
		for r, mc := range in.Machines {
			s.Times[j][r] = times[mc.Name]
		}
	}
	return in, s, nil
}
