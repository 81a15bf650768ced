// Package incremental maintains a DSCT-EA instance as a long-lived,
// mutable optimisation problem and re-optimises it after scheduler events
// — task arrivals and departures, machine joins and leaves, energy-budget
// renegotiations — instead of rebuilding and solving from scratch per
// event, the re-optimisation pattern of production scheduling services.
//
// Each event becomes an in-place delta against one lp.Problem (appended
// columns and rows, [0,0] bound fixes for departures, right-hand-side
// edits; see internal/lp's mutation API), and the re-solve imports the
// previous solve's mip.WarmState: the root relaxation starts from the
// previous optimal basis (dual simplex repairs the handful of violated
// rows), and the pseudo-cost observations keep branching informed. Any
// non-adoptable piece degrades to its cold equivalent, so warm starting is
// a latency optimisation, never a correctness risk.
//
// Departed entities are deactivated, never deleted: their columns are
// boxed to [0,0] and their rows become inert (a departed task's assignment
// row gets right-hand side 0; its epigraph rows hold 0 <= intercept, valid
// because concave accuracy curves with a(0) >= 0 have non-negative chord
// intercepts; a stale deadline-staircase row is implied by the latest live
// task's row below it). Column indices therefore stay stable for the
// lifetime of the engine, which is what lets bases and pseudo-cost
// observations survive arbitrarily long event streams. The cost is that
// the problem monotonically grows with total events seen — an engine is a
// steady-state object, recycled at operator cadence, not a forever object.
package incremental

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/accuracy"
	"repro/internal/core"
	"repro/internal/lp"
	"repro/internal/machine"
	"repro/internal/mip"
	"repro/internal/task"
)

// EventKind names a scheduler event. The string values are the wire form
// cmd/dsctd accepts on stdin.
type EventKind string

// Event kinds.
const (
	// TaskArrive admits a new inference task: Task (unique id), Deadline,
	// and its accuracy curve as Acc or as Breaks/Values (GFLOPs grid and
	// accuracies, accuracy.NewPWL's contract).
	TaskArrive EventKind = "task-arrive"
	// TaskDepart cancels a live task (Task).
	TaskDepart EventKind = "task-depart"
	// MachineJoin adds a machine: Machine (unique id), Speed (GFLOP/s),
	// Power (W).
	MachineJoin EventKind = "machine-join"
	// MachineLeave withdraws a live machine (Machine).
	MachineLeave EventKind = "machine-leave"
	// BudgetChange renegotiates the energy budget to Budget (J).
	BudgetChange EventKind = "budget-change"
)

// Event is one scheduler event. Unused fields are ignored per kind; see
// the EventKind constants for which fields each kind reads.
type Event struct {
	Kind EventKind `json:"kind"`

	Task     string    `json:"task,omitempty"`
	Deadline float64   `json:"deadline,omitempty"`
	Breaks   []float64 `json:"breaks,omitempty"`
	Values   []float64 `json:"values,omitempty"`
	// Acc, when non-nil, takes precedence over Breaks/Values for in-process
	// callers that already hold a fitted curve.
	Acc *accuracy.PWL `json:"-"`

	Machine string  `json:"machine,omitempty"`
	Speed   float64 `json:"speed,omitempty"`
	Power   float64 `json:"power,omitempty"`

	Budget float64 `json:"budget,omitempty"`
}

// Options tunes an Engine. The zero value means: solve on every posted
// event, warm starts on, no node limit override, budget 0 (tasks idle
// until a budget-change event funds them).
type Options struct {
	// Workers is ignored: every re-solve runs its search on the flushing
	// goroutine. It remains so that callers setting it still build.
	Workers int
	// BatchWindow coalesces events: Post buffers until this many events are
	// pending, then applies them as one delta batch and re-solves once.
	// <= 1 re-solves per event; Flush always drains regardless.
	BatchWindow int
	// DisableWarm solves every batch cold — no basis or pseudo-cost
	// carry-over, no workspace reuse. The differential baseline
	// and the benchmark's cold arm.
	DisableWarm bool
	// MaxNodes caps each re-solve's branch-and-bound tree (0: mip default).
	MaxNodes int
	// Budget is the initial energy budget in joules.
	Budget float64
}

// Solution is the engine's view of one re-solve: times and assignments
// keyed by the caller's task and machine ids. The times are the exact
// optimum of the incumbent's assignment (core.FixedAssignment), so every
// value below is the schedule's own.
type Solution struct {
	Status mip.Status
	// TotalAccuracy is Σ_j a_j over live tasks; Objective is the paper's
	// minimisation form, live-task count minus TotalAccuracy.
	TotalAccuracy float64
	Objective     float64
	// Times[task][machine] is the processing time in seconds (live pairs
	// only, exact zeros off the assigned machine); Assigned[task] is the
	// machine carrying the task's unit assignment. Energy is the
	// schedule's total energy draw in joules, within the budget by
	// construction.
	Times    map[string]map[string]float64
	Assigned map[string]string
	Energy   float64
	Nodes    int
}

// Stats is the engine's cumulative event/solve accounting.
type Stats struct {
	Events  int // events posted
	Batches int // delta batches applied (solves triggered)
	Solves  int // MIP re-solves run

	WarmResolves int // re-solves that imported a previous WarmState
	ColdResolves int // re-solves without one (first solve, DisableWarm)

	// Node-level accounting summed over all re-solves: warm/cold node
	// relaxations, warm starts that had to refactorise, and
	// branch-and-bound nodes.
	NodeWarm         int
	NodeCold         int
	InheritFallbacks int
	Nodes            int
	// CutsCarried is always zero: re-solves add no cutting planes. It
	// remains so that callers reporting it still build.
	CutsCarried int

	SolveTime time.Duration // total wall time inside mip.Solve
	LastSolve time.Duration
}

// WarmHitRate is the fraction of re-solves that started from imported
// warm state (0 when no solve ran).
func (s Stats) WarmHitRate() float64 {
	if s.Solves == 0 {
		return 0
	}
	return float64(s.WarmResolves) / float64(s.Solves)
}

// EventsPerSec is the posted-event throughput per second of solve time
// (0 before the first solve).
func (s Stats) EventsPerSec() float64 {
	if s.SolveTime <= 0 {
		return 0
	}
	return float64(s.Events) / s.SolveTime.Seconds()
}

// liveTask is the engine's bookkeeping for one (possibly departed) task.
// Column/row indices never move; per-machine slices are indexed by the
// machine's seq and hold -1 where no column exists (machine joined after
// the task departed, or left before the task arrived).
type liveTask struct {
	id       string
	seq      int
	deadline float64
	acc      *accuracy.PWL
	alive    bool

	z       int
	t, x    []int
	segRows []int
	aggRow  int
	gubRow  int
	stair   []int // staircase row of this task per machine seq (-1: none)
}

// link returns the coefficient U of the task's deadline link
// t_r <= U·x_r on machine mc: min(d, f^max/s_r). The box caps t_r at
// f^max/s_r and x_r is 0 or 1, so the link is valid at every integral
// point, and where f^max/s_r < d its relaxation is tighter than the
// paper's t_r <= d·x_r.
func (tk *liveTask) link(mc *liveMachine) float64 {
	return math.Min(tk.deadline, tk.acc.FMax()/mc.speed)
}

// liveMachine is the bookkeeping for one (possibly withdrawn) machine.
type liveMachine struct {
	id           string
	seq          int
	speed, power float64
	alive        bool
}

// Engine is a mutable DSCT-EA instance with warm-started re-solves. Not
// goroutine-safe: one goroutine owns an Engine.
type Engine struct {
	opts      Options
	p         *lp.Problem
	budgetRow int
	budget    float64

	tasks    []*liveTask // append-only; seq = index
	machines []*liveMachine
	taskByID map[string]*liveTask    // live tasks only
	machByID map[string]*liveMachine // live machines only

	pending   []Event
	projTasks map[string]bool // live ∪ pending view for Post-time validation
	projMachs map[string]bool

	// live holds the live tasks in staircase order (see before), kept
	// sorted as tasks arrive and depart.
	live []*liveTask

	// The flush's fixed-assignment view, rebuilt by loadView before each
	// re-solve and read-only during it: the live tasks in live order and
	// the live machines in join order. The rounding hook reads it during
	// the search; extraction runs fx after mip.Solve returns, so fx,
	// assign and times are reused across flushes.
	vTasks []task.Task
	vMachs []*liveMachine
	fleet  machine.Fleet
	fx     core.FixedAssignment
	assign []int
	times  []float64

	warm  *mip.WarmState
	ws    *lp.Workspace
	stats Stats
	last  *Solution
}

// New creates an empty engine. Variable 0 is a permanent [0,0] dummy that
// anchors the energy-budget row before any task or machine exists.
func New(opts Options) *Engine {
	p := lp.NewProblem(1)
	p.SetBounds(0, 0, 0)
	e := &Engine{
		opts:      opts,
		p:         p,
		budget:    opts.Budget,
		taskByID:  make(map[string]*liveTask),
		machByID:  make(map[string]*liveMachine),
		projTasks: make(map[string]bool),
		projMachs: make(map[string]bool),
		ws:        lp.NewWorkspace(),
	}
	e.budgetRow = p.AddConstraint([]lp.Term{{Var: 0, Coef: 1}}, lp.LE, opts.Budget)
	return e
}

// LiveTasks returns the number of live tasks (pending events excluded).
func (e *Engine) LiveTasks() int { return len(e.taskByID) }

// LiveMachines returns the number of live machines (pending excluded).
func (e *Engine) LiveMachines() int { return len(e.machByID) }

// Stats returns a copy of the cumulative accounting.
func (e *Engine) Stats() Stats { return e.stats }

// Solution returns the latest solve result (nil before the first solve).
func (e *Engine) Solution() *Solution { return e.last }

// Pending returns the number of buffered events awaiting a Flush.
func (e *Engine) Pending() int { return len(e.pending) }

// Post validates ev against the projected state (live entities plus
// buffered events) and buffers it. When the batch window fills it flushes:
// the returned Solution is non-nil exactly when a re-solve ran.
func (e *Engine) Post(ev Event) (*Solution, error) {
	if err := e.validate(&ev); err != nil {
		return nil, err
	}
	switch ev.Kind {
	case TaskArrive:
		e.projTasks[ev.Task] = true
	case TaskDepart:
		delete(e.projTasks, ev.Task)
	case MachineJoin:
		e.projMachs[ev.Machine] = true
	case MachineLeave:
		delete(e.projMachs, ev.Machine)
	}
	e.pending = append(e.pending, ev)
	e.stats.Events++
	if len(e.pending) >= e.opts.BatchWindow || e.opts.BatchWindow <= 1 {
		return e.Flush()
	}
	return nil, nil
}

// Apply posts ev and forces an immediate flush of everything pending.
func (e *Engine) Apply(ev Event) (*Solution, error) {
	if _, err := e.Post(ev); err != nil {
		return nil, err
	}
	return e.Flush()
}

// Flush applies every buffered event as one delta batch and re-solves.
// With nothing pending it returns the last solution unchanged.
func (e *Engine) Flush() (*Solution, error) {
	if len(e.pending) == 0 {
		return e.last, nil
	}
	for i := range e.pending {
		e.applyEvent(&e.pending[i])
	}
	e.pending = e.pending[:0]
	e.stats.Batches++
	return e.solve()
}

// validate checks ev against the projected live sets and, for arrivals,
// builds the accuracy curve (stashed in ev.Acc so apply never re-parses).
func (e *Engine) validate(ev *Event) error {
	switch ev.Kind {
	case TaskArrive:
		if ev.Task == "" {
			return fmt.Errorf("incremental: %s: empty task id", ev.Kind)
		}
		if e.projTasks[ev.Task] {
			return fmt.Errorf("incremental: task %q already live", ev.Task)
		}
		if !(ev.Deadline > 0) || math.IsInf(ev.Deadline, 0) {
			return fmt.Errorf("incremental: task %q: deadline must be positive and finite, got %g", ev.Task, ev.Deadline)
		}
		if ev.Acc == nil {
			pwl, err := accuracy.NewPWL(ev.Breaks, ev.Values)
			if err != nil {
				return fmt.Errorf("incremental: task %q: %w", ev.Task, err)
			}
			ev.Acc = pwl
		}
		if ev.Acc.AMin() < 0 {
			// A negative accuracy floor would make departed tasks' epigraph
			// rows (0 <= intercept) infeasible; the model never produces one.
			return fmt.Errorf("incremental: task %q: negative accuracy floor %g", ev.Task, ev.Acc.AMin())
		}
	case TaskDepart:
		if !e.projTasks[ev.Task] {
			return fmt.Errorf("incremental: task %q not live", ev.Task)
		}
	case MachineJoin:
		if ev.Machine == "" {
			return fmt.Errorf("incremental: %s: empty machine id", ev.Kind)
		}
		if e.projMachs[ev.Machine] {
			return fmt.Errorf("incremental: machine %q already live", ev.Machine)
		}
		if !(ev.Speed > 0) || !(ev.Power > 0) || math.IsInf(ev.Speed, 0) || math.IsInf(ev.Power, 0) {
			return fmt.Errorf("incremental: machine %q: speed and power must be positive and finite, got %g GFLOP/s %g W", ev.Machine, ev.Speed, ev.Power)
		}
	case MachineLeave:
		if !e.projMachs[ev.Machine] {
			return fmt.Errorf("incremental: machine %q not live", ev.Machine)
		}
	case BudgetChange:
		if ev.Budget < 0 || math.IsInf(ev.Budget, 0) || math.IsNaN(ev.Budget) {
			return fmt.Errorf("incremental: budget must be non-negative and finite, got %g", ev.Budget)
		}
	default:
		return fmt.Errorf("incremental: unknown event kind %q", ev.Kind)
	}
	return nil
}

// before orders tasks by (deadline, arrival seq) — the deadline-staircase
// prefix order, with arrival order as the deterministic tie-break.
func before(a, b *liveTask) bool {
	//lint:ignore floatcmp comparator tie-break: tolerant comparison would break the strict weak ordering sort requires
	if a.deadline != b.deadline {
		return a.deadline < b.deadline
	}
	return a.seq < b.seq
}

// insertLive adds a newly arrived task to the staircase-ordered live
// list. Arrivals carry the largest seq, so the task goes after every live
// task it does not precede.
func (e *Engine) insertLive(tk *liveTask) {
	i := len(e.live)
	for i > 0 && before(tk, e.live[i-1]) {
		i--
	}
	e.live = slices.Insert(e.live, i, tk)
}

// applyEvent turns one (validated) event into problem deltas.
//
//lint:hotpath=bounded a delta touches O(live pairs) columns and rows, never the whole history
func (e *Engine) applyEvent(ev *Event) {
	switch ev.Kind {
	case TaskArrive:
		e.applyArrive(ev)
	case TaskDepart:
		tk := e.taskByID[ev.Task]
		tk.alive = false
		delete(e.taskByID, ev.Task)
		i := slices.Index(e.live, tk)
		e.live = slices.Delete(e.live, i, i+1)
		e.p.Deactivate(tk.z)
		for _, v := range tk.t {
			if v >= 0 {
				e.p.Deactivate(v)
			}
		}
		for _, v := range tk.x {
			if v >= 0 {
				e.p.Deactivate(v)
			}
		}
		// Σ_r x_jr = 1 over now-inert columns must become Σ = 0.
		e.p.SetRHS(tk.gubRow, 0)
	case MachineJoin:
		e.applyJoin(ev)
	case MachineLeave:
		mc := e.machByID[ev.Machine]
		mc.alive = false
		delete(e.machByID, ev.Machine)
		for _, tk := range e.tasks {
			if !tk.alive || mc.seq >= len(tk.t) || tk.t[mc.seq] < 0 {
				continue
			}
			e.p.Deactivate(tk.t[mc.seq])
			e.p.Deactivate(tk.x[mc.seq])
		}
	case BudgetChange:
		e.budget = ev.Budget
		e.p.SetRHS(e.budgetRow, ev.Budget)
	}
}

// applyArrive appends the task's column block (z, then t/x per live
// machine), its own rows (epigraph segments, aggregate work cap, deadline
// links, assignment GUB, one staircase row per live machine) and its
// terms on shared rows (the energy budget row and the staircase rows of
// live tasks due after it).
func (e *Engine) applyArrive(ev *Event) {
	acc := ev.Acc
	tk := &liveTask{
		id: ev.Task, seq: len(e.tasks), deadline: ev.Deadline, acc: acc, alive: true,
		t: make([]int, len(e.machines)), x: make([]int, len(e.machines)),
		stair: make([]int, len(e.machines)),
	}
	for i := range tk.t {
		tk.t[i], tk.x[i], tk.stair[i] = -1, -1, -1
	}
	e.tasks = append(e.tasks, tk)
	e.taskByID[tk.id] = tk
	e.insertLive(tk)

	tk.z = e.p.AddVariables(1)
	e.p.SetObjCoef(tk.z, 1)
	e.p.SetBounds(tk.z, 0, acc.AMax())
	for _, mc := range e.machines {
		if !mc.alive {
			continue
		}
		tv := e.p.AddVariables(2)
		xv := tv + 1
		e.p.SetBounds(tv, 0, acc.FMax()/mc.speed)
		e.p.SetBounds(xv, 0, 1)
		tk.t[mc.seq], tk.x[mc.seq] = tv, xv
	}

	// Epigraph rows (3b): z <= α_k Σ_r s_r t_r + b_k.
	for _, seg := range acc.Segments() {
		terms := []lp.Term{{Var: tk.z, Coef: 1}}
		for _, mc := range e.machines {
			if mc.alive {
				terms = append(terms, lp.Term{Var: tk.t[mc.seq], Coef: -seg.Slope * mc.speed})
			}
		}
		tk.segRows = append(tk.segRows, e.p.AddConstraint(terms, lp.LE, seg.Intercept))
	}
	// Aggregate work cap Σ_r s_r t_r <= f^max.
	agg := make([]lp.Term, 0, len(e.machByID))
	for _, mc := range e.machines {
		if mc.alive {
			agg = append(agg, lp.Term{Var: tk.t[mc.seq], Coef: mc.speed})
		}
	}
	tk.aggRow = e.p.AddConstraint(agg, lp.LE, acc.FMax())
	// Deadline links (1d) at their tight coefficient: t_r - U_r·x_r <= 0.
	for _, mc := range e.machines {
		if mc.alive {
			e.p.AddConstraint([]lp.Term{
				{Var: tk.t[mc.seq], Coef: 1},
				{Var: tk.x[mc.seq], Coef: -tk.link(mc)},
			}, lp.LE, 0)
		}
	}
	// Assignment GUB (1e): Σ_r x_r = 1.
	xs := make([]lp.Term, 0, len(e.machByID))
	for _, mc := range e.machines {
		if mc.alive {
			xs = append(xs, lp.Term{Var: tk.x[mc.seq], Coef: 1})
		}
	}
	tk.gubRow = e.p.AddConstraint(xs, lp.EQ, 1)

	// Staircase (1b): this task's own prefix row per live machine, and its
	// term appended to the rows of live tasks due after it. Departed tasks'
	// rows are left alone — without the new term they are implied by the
	// latest live predecessor's row, hence still valid.
	live := e.live
	for _, mc := range e.machines {
		if !mc.alive {
			continue
		}
		terms := make([]lp.Term, 0, len(live))
		for _, o := range live {
			if !before(tk, o) && mc.seq < len(o.t) && o.t[mc.seq] >= 0 {
				terms = append(terms, lp.Term{Var: o.t[mc.seq], Coef: 1})
			}
		}
		tk.stair[mc.seq] = e.p.AddConstraint(terms, lp.LE, tk.deadline)
	}
	newTerm := make([]lp.Term, 1)
	for _, o := range live {
		if o == tk || !before(tk, o) {
			continue
		}
		for _, mc := range e.machines {
			if mc.alive && mc.seq < len(o.stair) && o.stair[mc.seq] >= 0 && tk.t[mc.seq] >= 0 {
				newTerm[0] = lp.Term{Var: tk.t[mc.seq], Coef: 1}
				e.p.AppendTerms(o.stair[mc.seq], newTerm)
			}
		}
	}

	// Energy budget (1f): Σ_r P_r t_r joins the shared row.
	energy := make([]lp.Term, 0, len(e.machByID))
	for _, mc := range e.machines {
		if mc.alive {
			energy = append(energy, lp.Term{Var: tk.t[mc.seq], Coef: mc.power})
		}
	}
	if len(energy) > 0 {
		e.p.AppendTerms(e.budgetRow, energy)
	}
}

// applyJoin appends the machine's column block (t/x per live task), the
// new columns' terms on every live task's shared rows, the new deadline
// links, and the machine's own staircase rows.
func (e *Engine) applyJoin(ev *Event) {
	mc := &liveMachine{id: ev.Machine, seq: len(e.machines), speed: ev.Speed, power: ev.Power, alive: true}
	e.machines = append(e.machines, mc)
	e.machByID[mc.id] = mc

	live := e.live
	var energy []lp.Term
	for _, tk := range live {
		for len(tk.t) <= mc.seq {
			tk.t = append(tk.t, -1)
			tk.x = append(tk.x, -1)
			tk.stair = append(tk.stair, -1)
		}
		tv := e.p.AddVariables(2)
		xv := tv + 1
		e.p.SetBounds(tv, 0, tk.acc.FMax()/mc.speed)
		e.p.SetBounds(xv, 0, 1)
		tk.t[mc.seq], tk.x[mc.seq] = tv, xv

		segs := tk.acc.Segments()
		for k, row := range tk.segRows {
			e.p.AppendTerms(row, []lp.Term{{Var: tv, Coef: -segs[k].Slope * mc.speed}})
		}
		e.p.AppendTerms(tk.aggRow, []lp.Term{{Var: tv, Coef: mc.speed}})
		e.p.AddConstraint([]lp.Term{
			{Var: tv, Coef: 1}, {Var: xv, Coef: -tk.link(mc)},
		}, lp.LE, 0)
		e.p.AppendTerms(tk.gubRow, []lp.Term{{Var: xv, Coef: 1}})
		energy = append(energy, lp.Term{Var: tv, Coef: mc.power})
	}
	// Staircase rows on the new machine, prefix-nested in deadline order.
	for j, tk := range live {
		terms := make([]lp.Term, 0, j+1)
		for i := 0; i <= j; i++ {
			terms = append(terms, lp.Term{Var: live[i].t[mc.seq], Coef: 1})
		}
		tk.stair[mc.seq] = e.p.AddConstraint(terms, lp.LE, tk.deadline)
	}
	if len(energy) > 0 {
		e.p.AppendTerms(e.budgetRow, energy)
	}
}

// mipProblem assembles the mip view of the live problem: the integer set
// (live assignment binaries, stable task-then-machine order).
func (e *Engine) mipProblem() *mip.Problem {
	var ints []int
	for _, tk := range e.tasks {
		if !tk.alive {
			continue
		}
		for _, mc := range e.machines {
			if !mc.alive || mc.seq >= len(tk.x) || tk.x[mc.seq] < 0 {
				continue
			}
			ints = append(ints, tk.x[mc.seq])
		}
	}
	return &mip.Problem{LP: e.p, Integers: ints}
}

// loadView rebuilds the flush's fixed-assignment view of the live
// instance (see Engine.vTasks).
func (e *Engine) loadView() {
	e.vTasks = e.vTasks[:0]
	for _, tk := range e.live {
		e.vTasks = append(e.vTasks, task.Task{Name: tk.id, Deadline: tk.deadline, Acc: tk.acc})
	}
	e.vMachs, e.fleet = e.vMachs[:0], e.fleet[:0]
	for _, mc := range e.machines {
		if mc.alive {
			e.vMachs = append(e.vMachs, mc)
			e.fleet = append(e.fleet, machine.Machine{Name: mc.id, Speed: mc.speed, Power: mc.power})
		}
	}
}

// exact rounds x to one live machine per live task — assign[j] indexes
// vMachs with the largest x_jr of live task j, ties to the earlier
// machine — and writes that assignment's exact times into t with fx,
// returning their total accuracy.
func (e *Engine) exact(x []float64, fx *core.FixedAssignment, assign []int, t []float64) float64 {
	for j, tk := range e.live {
		best, bestVal := 0, math.Inf(-1)
		for r, mc := range e.vMachs {
			if v := x[tk.x[mc.seq]]; v > bestVal {
				bestVal, best = v, r
			}
		}
		assign[j] = best
	}
	return fx.Solve(e.vTasks, e.fleet, e.budget, assign, t)
}

// roundingHook returns the primal heuristic over the flush's view: each
// live task goes to its largest-x̂ live machine, and the candidate is that
// assignment's exact optimum — one-hot x, core.FixedAssignment times t on
// the chosen machines, z_j = a_j(s_r·t_j) — with zeros on dead columns and
// on the dummy column 0. Every call allocates its own scratch and its
// candidate. mip calls it only at a fractional node, so some live task has
// columns and at least one machine is live.
func (e *Engine) roundingHook() mip.RoundingHook {
	nv := e.p.NumVars()
	return func(x []float64) ([]float64, bool) {
		n := len(e.live)
		assign, t := make([]int, n), make([]float64, n)
		e.exact(x, new(core.FixedAssignment), assign, t)
		cand := make([]float64, nv)
		for j, tk := range e.live {
			r := assign[j]
			seq := e.vMachs[r].seq
			cand[tk.x[seq]] = 1
			cand[tk.t[seq]] = t[j]
			cand[tk.z] = tk.acc.Eval(e.fleet[r].Speed * t[j])
		}
		return cand, true
	}
}

// solve runs one warm-started (or cold, per Options.DisableWarm) MIP
// re-solve of the live problem and refreshes stats and the last solution.
func (e *Engine) solve() (*Solution, error) {
	prob := e.mipProblem()
	e.loadView()
	opts := mip.Options{
		MaxNodes: e.opts.MaxNodes,
		Rounding: e.roundingHook(),
	}
	warm := false
	if !e.opts.DisableWarm {
		opts.ExportWarm = true
		opts.Warm = e.warm
		warm = e.warm != nil
		opts.Workspace = e.ws
	}
	start := time.Now() //lint:ignore wallclock sanctioned solve-latency stats stamp
	res, err := mip.Solve(prob, opts)
	if err != nil {
		return nil, fmt.Errorf("incremental: re-solve: %w", err)
	}
	elapsed := time.Since(start) //lint:ignore wallclock sanctioned solve-latency stats stamp
	if !e.opts.DisableWarm {
		e.warm = res.Warm
	}

	e.stats.Solves++
	if warm {
		e.stats.WarmResolves++
	} else {
		e.stats.ColdResolves++
	}
	e.stats.NodeWarm += res.WarmSolves
	e.stats.NodeCold += res.ColdSolves
	e.stats.InheritFallbacks += res.InheritFallbacks
	e.stats.Nodes += res.Nodes
	e.stats.SolveTime += elapsed
	e.stats.LastSolve = elapsed

	sol := &Solution{
		Status:   res.Status,
		Times:    make(map[string]map[string]float64),
		Assigned: make(map[string]string),
		Nodes:    res.Nodes,
	}
	if res.Status == mip.Optimal || res.Status == mip.Feasible {
		// Rebuild the times exactly from the incumbent's assignment: the
		// reported accuracy and energy are the schedule's own.
		n := len(e.live)
		e.assign = slices.Grow(e.assign[:0], n)[:n]
		e.times = slices.Grow(e.times[:0], n)[:n]
		sol.TotalAccuracy = e.exact(res.X, &e.fx, e.assign, e.times)
		sol.Objective = float64(n) - sol.TotalAccuracy
		for j, tk := range e.live {
			times := make(map[string]float64, len(e.vMachs))
			for r, mc := range e.vMachs {
				v := 0.0
				if r == e.assign[j] {
					v = e.times[j]
				}
				times[mc.id] = v
				sol.Energy += mc.power * v
			}
			sol.Times[tk.id] = times
			sol.Assigned[tk.id] = e.vMachs[e.assign[j]].id
		}
	}
	e.last = sol
	return sol, nil
}
