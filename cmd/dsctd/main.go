// Command dsctd is the incremental DSCT-EA scheduler daemon: it keeps one
// warm problem instance alive and re-optimises it per scheduler event
// instead of solving from scratch each time (internal/incremental).
//
// Usage:
//
//	dsctd                          # JSON-lines events on stdin
//	dsctd -replay 120 -tasks 8 -machines 2 -seed 7
//	dsctd -replay 120 -batch 4
//
// In stdin mode each input line is one incremental.Event, e.g.:
//
//	{"kind":"machine-join","machine":"m0","speed":9500,"power":180}
//	{"kind":"budget-change","budget":4000}
//	{"kind":"task-arrive","task":"t0","deadline":1.5,"breaks":[0,40,90],"values":[0.001,0.61,0.82]}
//	{"kind":"task-depart","task":"t0"}
//
// Each re-solve prints one JSON line on stdout with the schedule summary;
// -v adds the full per-task time maps. With -replay N a deterministic
// N-event synthetic trace (internal/incremental.GenTrace) is replayed
// instead of reading stdin — the smoke-test and benchmarking mode. Final
// engine stats (warm-hit rate, events/sec, and the p50/p90/p99/max
// latency of the flushes, each timed from event apply to published
// schedule; percentiles within 6.25% above, max exact) go to stderr on
// exit.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"repro/internal/incremental"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "dsctd: %v\n", err)
		os.Exit(1)
	}
}

// summary is the per-flush stdout record.
type summary struct {
	Event         int                           `json:"event"`
	Status        string                        `json:"status"`
	Tasks         int                           `json:"tasks"`
	Machines      int                           `json:"machines"`
	TotalAccuracy float64                       `json:"total_accuracy"`
	Energy        float64                       `json:"energy_joules"`
	Nodes         int                           `json:"nodes"`
	Assigned      map[string]string             `json:"assigned,omitempty"`
	Times         map[string]map[string]float64 `json:"times,omitempty"`
}

func run(args []string, in io.Reader, out, errw io.Writer) error {
	fs := flag.NewFlagSet("dsctd", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		replay   = fs.Int("replay", 0, "replay an N-event synthetic trace instead of reading stdin")
		seed     = fs.Int64("seed", 1, "trace seed (with -replay)")
		tasks    = fs.Int("tasks", 8, "initial live tasks of the trace (with -replay)")
		machines = fs.Int("machines", 2, "initial live machines of the trace (with -replay)")
		batch    = fs.Int("batch", 1, "event coalescing window (re-solve every N events)")
		cold     = fs.Bool("cold", false, "disable warm starts (cold re-solve per batch)")
		verbose  = fs.Bool("v", false, "include per-task time maps in the output")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if *batch < 1 {
		return fmt.Errorf("-batch must be >= 1 (got %d)", *batch)
	}

	// The loop below flushes every -batch events itself, so the engine
	// never flushes on Post: each solve runs inside report's timed flush.
	e := incremental.New(incremental.Options{BatchWindow: math.MaxInt, DisableWarm: *cold})

	events, err := eventSource(*replay, *seed, *tasks, *machines, in)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(out)
	var lat latencyHist
	n := 0
	for {
		ev, ok, err := events()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		n++
		if _, err := e.Post(ev); err != nil { // only buffers: the window never fills
			return err
		}
		if n%*batch != 0 {
			continue
		}
		if err := report(enc, e, n, *verbose, &lat); err != nil {
			return err
		}
	}
	if n%*batch != 0 { // drain the partial tail batch
		if err := report(enc, e, n, *verbose, &lat); err != nil {
			return err
		}
	}
	st := e.Stats()
	_, _ = fmt.Fprintf(errw, "dsctd: %d events, %d solves (%d warm, %d cold, warm-hit %.0f%%), %d nodes\n",
		st.Events, st.Solves, st.WarmResolves, st.ColdResolves, 100*st.WarmHitRate(), st.Nodes)
	_, _ = fmt.Fprintf(errw, "dsctd: %d flushes, latency p50 %v, p90 %v, p99 %v, max %v; flush time %v total, solve time %v total, %.0f events/sec\n",
		lat.n, lat.quantile(50), lat.quantile(90), lat.quantile(99), lat.max, lat.total, st.SolveTime, st.EventsPerSec())
	return nil
}

// report flushes pending events, records the flush's latency in lat and
// writes one summary line.
func report(enc *json.Encoder, e *incremental.Engine, n int, verbose bool, lat *latencyHist) error {
	start := time.Now()
	sol, err := e.Flush()
	lat.record(time.Since(start))
	if err != nil {
		return err
	}
	if sol == nil {
		return nil
	}
	s := summary{
		Event:         n,
		Status:        sol.Status.String(),
		Tasks:         e.LiveTasks(),
		Machines:      e.LiveMachines(),
		TotalAccuracy: sol.TotalAccuracy,
		Energy:        sol.Energy,
		Nodes:         sol.Nodes,
	}
	if verbose {
		s.Assigned = sol.Assigned
		s.Times = sol.Times
	}
	return enc.Encode(s)
}

// eventSource returns a pull iterator over the replayed trace or decoded
// stdin lines: next() yields (event, true, nil) until the stream ends.
func eventSource(replay int, seed int64, tasks, machines int, in io.Reader) (func() (incremental.Event, bool, error), error) {
	if replay > 0 {
		trace, err := incremental.GenTrace(incremental.DefaultTraceConfig(seed, replay, tasks, machines))
		if err != nil {
			return nil, err
		}
		i := 0
		return func() (incremental.Event, bool, error) {
			if i >= len(trace) {
				return incremental.Event{}, false, nil
			}
			ev := trace[i]
			i++
			return ev, true, nil
		}, nil
	}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	line := 0
	return func() (incremental.Event, bool, error) {
		for sc.Scan() {
			line++
			if len(sc.Bytes()) == 0 {
				continue
			}
			var ev incremental.Event
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				return incremental.Event{}, false, fmt.Errorf("stdin line %d: %w", line, err)
			}
			return ev, true, nil
		}
		if err := sc.Err(); err != nil {
			return incremental.Event{}, false, fmt.Errorf("stdin: %w", err)
		}
		return incremental.Event{}, false, nil
	}, nil
}
