package incremental

import (
	"fmt"
	"sync"

	"repro/internal/mip"
)

// Sharded partitions the event stream across independent Engines by
// machine pool: each shard owns a disjoint set of machines (and the tasks
// routed to it) and an equal slice of the energy budget, so shards flush
// concurrently with no shared problem state. The partition is a
// restriction of the joint problem — the merged schedule is feasible for
// the global instance but its accuracy is a lower bound on the joint
// optimum, the usual price of pool sharding.
//
// Routing is deterministic: arrivals go to the shard with the fewest live
// tasks (ties to the lowest shard index), joins to the fewest live
// machines, departures and leaves follow the entity, budget changes split
// evenly. At a fixed shard count a fixed event stream always produces the
// same shard-local streams, so results are reproducible.
type Sharded struct {
	shards    []*Engine
	taskShard map[string]int
	machShard map[string]int
	stats     Stats
}

// NewSharded creates n independent shards, each configured with opts and
// a 1/n share of opts.Budget.
func NewSharded(n int, opts Options) *Sharded {
	if n <= 0 {
		panic(fmt.Sprintf("incremental: NewSharded(%d): need at least one shard", n))
	}
	s := &Sharded{
		shards:    make([]*Engine, n),
		taskShard: make(map[string]int),
		machShard: make(map[string]int),
	}
	sub := opts
	sub.Budget = opts.Budget / float64(n)
	// Batching is coordinated here: shard engines never auto-flush on Post,
	// Flush drains all shards together in parallel.
	sub.BatchWindow = 1 << 30
	for i := range s.shards {
		s.shards[i] = New(sub)
	}
	return s
}

// Shards returns the number of shards.
func (s *Sharded) Shards() int { return len(s.shards) }

// Engine returns shard i's engine for inspection (stats, live counts).
// Callers must not Post to it directly — routing lives in the wrapper.
func (s *Sharded) Engine(i int) *Engine { return s.shards[i] }

// route picks the shard for ev, recording new entities and forgetting
// departed ones. BudgetChange returns -1: it fans out to every shard.
func (s *Sharded) route(ev Event) (int, error) {
	switch ev.Kind {
	case TaskArrive:
		if _, dup := s.taskShard[ev.Task]; dup {
			return 0, fmt.Errorf("incremental: task %q already live", ev.Task)
		}
		best := 0
		for i := 1; i < len(s.shards); i++ {
			if s.shards[i].projCount(true) < s.shards[best].projCount(true) {
				best = i
			}
		}
		s.taskShard[ev.Task] = best
		return best, nil
	case TaskDepart:
		sh, ok := s.taskShard[ev.Task]
		if !ok {
			return 0, fmt.Errorf("incremental: task %q not live", ev.Task)
		}
		delete(s.taskShard, ev.Task)
		return sh, nil
	case MachineJoin:
		if _, dup := s.machShard[ev.Machine]; dup {
			return 0, fmt.Errorf("incremental: machine %q already live", ev.Machine)
		}
		best := 0
		for i := 1; i < len(s.shards); i++ {
			if s.shards[i].projCount(false) < s.shards[best].projCount(false) {
				best = i
			}
		}
		s.machShard[ev.Machine] = best
		return best, nil
	case MachineLeave:
		sh, ok := s.machShard[ev.Machine]
		if !ok {
			return 0, fmt.Errorf("incremental: machine %q not live", ev.Machine)
		}
		delete(s.machShard, ev.Machine)
		return sh, nil
	case BudgetChange:
		return -1, nil
	default:
		return 0, fmt.Errorf("incremental: unknown event kind %q", ev.Kind)
	}
}

// projCount is the projected live-entity count of one engine (tasks or
// machines), pending events included.
func (e *Engine) projCount(tasks bool) int {
	if tasks {
		return len(e.projTasks)
	}
	return len(e.projMachs)
}

// Post routes ev to its shard (or all shards for a budget change) and
// buffers it there. Call Flush to re-solve; Post never solves.
func (s *Sharded) Post(ev Event) error {
	sh, err := s.route(ev)
	if err != nil {
		return err
	}
	if sh >= 0 {
		if _, err = s.shards[sh].Post(ev); err != nil {
			return err
		}
		s.stats.Events++
		return nil
	}
	split := ev
	split.Budget = ev.Budget / float64(len(s.shards))
	for _, e := range s.shards {
		if _, err := e.Post(split); err != nil {
			return err
		}
	}
	s.stats.Events++
	return nil
}

// Flush re-solves every shard with pending events concurrently and merges
// the shard solutions: Times and Assigned union (shards are disjoint),
// accuracies and energies sum, the worst shard status wins. Shards with
// nothing pending contribute their last solution unchanged.
func (s *Sharded) Flush() (*Solution, error) {
	type out struct {
		sol *Solution
		err error
	}
	outs := make([]out, len(s.shards))
	var wg sync.WaitGroup
	for i, e := range s.shards {
		if e.Pending() == 0 {
			outs[i].sol = e.Solution()
			continue
		}
		wg.Add(1)
		go func(i int, e *Engine) {
			defer wg.Done()
			outs[i].sol, outs[i].err = e.Flush()
		}(i, e)
	}
	wg.Wait()
	merged := &Solution{
		Times:    make(map[string]map[string]float64),
		Assigned: make(map[string]string),
	}
	seen := false
	for i, o := range outs {
		if o.err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, o.err)
		}
		if o.sol == nil {
			continue // shard never solved (no events yet)
		}
		if !seen || statusRank(o.sol.Status) > statusRank(merged.Status) {
			merged.Status = o.sol.Status
			seen = true
		}
		merged.TotalAccuracy += o.sol.TotalAccuracy
		merged.Objective += o.sol.Objective
		merged.Energy += o.sol.Energy
		merged.Nodes += o.sol.Nodes
		for task, times := range o.sol.Times {
			merged.Times[task] = times
		}
		for task, mach := range o.sol.Assigned {
			merged.Assigned[task] = mach
		}
	}
	return merged, nil
}

// statusRank orders statuses worst-last so the merge keeps the weakest
// guarantee across shards.
func statusRank(st mip.Status) int {
	switch st {
	case mip.Optimal:
		return 0
	case mip.Feasible:
		return 1
	case mip.NoIncumbent:
		return 2
	default: // Infeasible
		return 3
	}
}

// Stats sums the shard stats (SolveTime adds; LastSolve is the largest
// shard's). Events counts stream events posted to the wrapper —
// a fanned-out budget change is one event, not one per shard.
func (s *Sharded) Stats() Stats {
	var total Stats
	for _, e := range s.shards {
		st := e.Stats()
		total.Batches += st.Batches
		total.Solves += st.Solves
		total.WarmResolves += st.WarmResolves
		total.ColdResolves += st.ColdResolves
		total.NodeWarm += st.NodeWarm
		total.NodeCold += st.NodeCold
		total.InheritFallbacks += st.InheritFallbacks
		total.Nodes += st.Nodes
		total.SolveTime += st.SolveTime
		if st.LastSolve > total.LastSolve {
			total.LastSolve = st.LastSolve
		}
	}
	total.Events = s.stats.Events
	return total
}
