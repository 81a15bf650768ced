// Command dsctbench is the repository's end-to-end and per-layer benchmark
// of the DSCT-EA stack. One closed-loop client drives one workload for a
// fixed time and prints every metric by name and unit; the last line of
// standard output is a JSON object with the keys correct, attempted,
// failed and metrics. See NOTES.md for the workloads and the metric map.
//
//	dsctbench --workload approx-large --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones, measured with tracing
// off. With --trace 1 each round of requests is served twice on identical
// inputs, untraced and then traced; the per-layer metrics come from the
// traced pass, the tracing overhead from the pair, and the two passes'
// work counts must agree exactly. The exit code is non-zero when an output
// check fails.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
)

// setupRepeats is how many times set-up runs per process; setup_s is the
// median.
const setupRepeats = 3

// outcome is what one request produced.
type outcome struct {
	// failed names why the request failed (solver error, invalid schedule,
	// safety cap, no incumbent, empty schedule); empty on success.
	failed string
	// accuracy is the mean per-task accuracy of the published schedule.
	accuracy float64
	// retried marks a request the client had to re-solve by its fallback
	// path (exact-small: cold node LPs).
	retried bool
}

// workload is one closed-loop request stream. Requests come in rounds;
// round k replays pool entry k modulo the pool size, so a run that outlasts
// the pool repeats inputs rather than generating new ones on the clock.
type workload interface {
	// setup generates the seed's inputs and builds the models; it is timed
	// as setup_s and may run several times, the last call's state is used.
	setup(seed int64, tr *tracer) error
	// startRound prepares round k off the clock and returns its size.
	startRound(k int, tr *tracer) (int, error)
	// serve runs request i of the current round; it is the timed request.
	// Work counts read from the layers' public return values go into c.
	serve(i int, tr *tracer, c counts) outcome
	// check verifies request i's published output off the clock.
	check(i int, o outcome) error
	// describe names the input sizes throughput is stated at.
	describe() string
}

// counts accumulates deterministic work counts by name.
type counts map[string]int64

func (c counts) add(name string, v int64) { c[name] += v }

func (c counts) addAll(o counts) {
	for k, v := range o {
		c[k] += v
	}
}

// diff lists the names whose values differ between c and o.
func (c counts) diff(o counts) []string {
	var out []string
	for k, v := range c {
		if o[k] != v {
			out = append(out, fmt.Sprintf("%s %d != %d", k, v, o[k]))
		}
	}
	for k, v := range o {
		if _, ok := c[k]; !ok {
			out = append(out, fmt.Sprintf("%s missing != %d", k, v))
		}
	}
	sort.Strings(out)
	return out
}

// metric is one reported value.
type metric struct {
	Name  string
	Value float64
	Unit  string
	Note  string // printed next to the value, not part of the JSON
	// extra marks a metric that is printed but left out of the JSON line:
	// it can read 0, so it cannot carry a regression bound.
	extra bool
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

var workloads = map[string]func() workload{
	"approx-large": func() workload { return &approxLarge{} },
	"exact-small":  func() workload { return &exactSmall{} },
	"fr-lp":        func() workload { return &frLP{} },
	"daemon-churn": func() workload { return &daemonChurn{} },
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dsctbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload: approx-large, exact-small, fr-lp or daemon-churn")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 20, "on-clock time to measure, completed to a whole round")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, 1: per-layer metrics from the traced run")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	w := mk()
	var rep *report
	var err error
	if *trace == 0 {
		rep, err = measure(w, *seed, *seconds)
	} else {
		var tr *traceReport
		tr, err = measureTraced(w, *seed, *seconds)
		if err == nil {
			path := fmt.Sprintf(".bench_build/spans/%s-seed%d.jsonl", *name, *seed)
			if werr := tr.tracer.write(path); werr != nil {
				return fmt.Errorf("writing spans: %w", werr)
			}
			fmt.Printf("spans: %d written to %s\n", len(tr.tracer.spans), path)
			rep = tr.report
			rep.metrics = tr.metrics()
		}
	}
	if err != nil {
		return err
	}
	fmt.Printf("workload %s seed %d: %s\n", *name, *seed, w.describe())
	res := result{Correct: len(rep.wrong) == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range rep.metrics {
		fmt.Printf("  %-32s %14.6g %-6s %s\n", m.Name, m.Value, m.Unit, m.Note)
		if !m.extra {
			res.Metrics[m.Name] = jsonMetric{Value: m.Value, Unit: m.Unit}
		}
	}
	for _, f := range rep.failures {
		fmt.Println("  failure:", f)
	}
	for _, e := range rep.wrong {
		fmt.Fprintln(os.Stderr, "output check failed:", e)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !res.Correct {
		return errors.New("output checks failed")
	}
	return nil
}
