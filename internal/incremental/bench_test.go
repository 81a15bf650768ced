package incremental

// Steady-state re-solve benchmarks. BenchmarkIncrementalResolve pairs a
// cold arm (every event solved from scratch, DisableWarm) against the warm
// arm (basis + pseudo-cost carry-over) on the same fig-scale
// trace tail: the /cold vs /warm sub-names line up with cmd/benchjson's
// cold_vs_warm pairing, which gates the warm speedup. Per iteration the
// engine is rebuilt and the trace prefix replayed off the clock, so only
// the measured tail's per-event re-solve cost is timed and the problem
// size does not grow with b.N.

import (
	"testing"
)

const benchTail = 12 // measured events per iteration

// benchTrace is a fig-scale steady-state stream: 24 tasks on 3 machines
// with slack deadlines and an ample budget, the regime where per-event
// re-solve cost is root-LP-dominated (trees collapse to a node or two) and
// cross-solve warm starts pay. Contended traces are tree-dominated — both
// arms spend their time in identical branch-and-bound — and are covered by
// the correctness suite instead.
func benchTrace(b *testing.B, seed int64) ([]Event, int) {
	b.Helper()
	cfg := DefaultTraceConfig(seed, 24+3+1+benchTail, 24, 3)
	cfg.DeadlineScale = 3
	cfg.BudgetScale = 5
	trace, err := GenTrace(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return trace, len(trace) - benchTail
}

// replay posts events through the engine, failing the benchmark on any
// validation or solve error.
func replay(b *testing.B, e *Engine, events []Event) {
	b.Helper()
	for i := range events {
		if _, err := e.Apply(events[i]); err != nil {
			b.Fatal(err)
		}
	}
}

func benchResolve(b *testing.B, opts Options) {
	trace, prefix := benchTrace(b, 71)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := New(opts)
		replay(b, e, trace[:prefix])
		b.StartTimer()
		replay(b, e, trace[prefix:])
	}
	b.ReportMetric(float64(benchTail), "events/op")
}

// BenchmarkIncrementalResolve measures the steady-state per-event re-solve
// cost of the two arms; benchjson diffs warm against cold and the ISSUE
// gate requires warm >= 3x faster.
func BenchmarkIncrementalResolve(b *testing.B) {
	b.Run("cold", func(b *testing.B) { benchResolve(b, Options{DisableWarm: true}) })
	b.Run("warm", func(b *testing.B) { benchResolve(b, Options{}) })
}

// BenchmarkEventThroughput measures sustained warm-path event throughput
// (posted events per wall-clock second, full replay including deltas and
// re-solves) — the headline events/sec metric gated by cmd/benchjson.
func BenchmarkEventThroughput(b *testing.B) {
	trace, _ := benchTrace(b, 73)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := New(Options{})
		b.StartTimer()
		replay(b, e, trace)
	}
	b.ReportMetric(float64(b.N*len(trace))/b.Elapsed().Seconds(), "events/sec")
}
