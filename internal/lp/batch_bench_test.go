package lp

// Batch-throughput benchmark: the workload is a CORPUS of instances, the
// metric is instances/sec, and the comparison is per-solve allocation
// (fresh SolveBasis per instance) against workspace reuse (one Workspace
// solving the whole corpus). Both segments assert bit-identical
// objectives against a pre-computed reference and report the corpus
// pivot total, so a throughput win can never hide a path change; with
// the arithmetic pinned, instances/sec isolates exactly the allocation
// and GC cost the Workspace exists to remove. scripts/verify.sh -bench
// records both segments in its BENCH_PR<n>.json.

import "testing"

// batchRef solves every instance fresh once and returns the reference
// objectives and the corpus pivot total the benchmark segments pin
// themselves against.
func batchRef(b *testing.B, probs []*Problem) ([]float64, float64) {
	b.Helper()
	ref := make([]float64, len(probs))
	var pivots float64
	for i, p := range probs {
		sol, _, err := SolveBasis(p, Options{})
		if err != nil {
			b.Fatal(err)
		}
		ref[i] = sol.Objective
		pivots += float64(sol.Iterations)
	}
	return ref, pivots
}

// BenchmarkBatchThroughputLP: the 240-instance differential corpus as a
// batch workload, run as a fresh and a pooled segment, each reporting
// instances/sec, allocs/op (one op = one full corpus pass) and the corpus
// pivot total. The instances are tiny (1-7 variables), so per-solve
// allocation dominates the fresh segment and the pooled segment
// measures the workspace win at its starkest — the B&B-node-sized regime
// the paper's per-epoch scheduling sweep lives in.
func BenchmarkBatchThroughputLP(b *testing.B) {
	probs := make([]*Problem, corpusSize)
	for i := range probs {
		probs[i] = corpusInstance(i).p
	}
	ref, refPivots := batchRef(b, probs)
	check := func(b *testing.B, i int, sol *Solution, err error, pivots *float64) {
		if err != nil {
			b.Fatal(err)
		}
		//lint:ignore floatcmp bit-identical objectives are the segment invariant
		if sol.Objective != ref[i] {
			b.Fatalf("instance %d: objective %.17g != reference %.17g", i, sol.Objective, ref[i])
		}
		*pivots += float64(sol.Iterations)
	}

	b.Run("fresh/corpus-240", func(b *testing.B) {
		b.ReportAllocs()
		var pivots float64
		for n := 0; n < b.N; n++ {
			pivots = 0
			for i, p := range probs {
				sol, _, err := SolveBasis(p, Options{})
				check(b, i, sol, err, &pivots)
			}
		}
		//lint:ignore floatcmp integer-valued pivot totals compare exactly
		if pivots != refPivots {
			b.Fatalf("pivot total %v != reference %v", pivots, refPivots)
		}
		b.ReportMetric(float64(b.N*len(probs))/b.Elapsed().Seconds(), "instances/sec")
		b.ReportMetric(pivots, "pivots")
	})
	b.Run("pooled/corpus-240", func(b *testing.B) {
		b.ReportAllocs()
		ws := NewWorkspace()
		var pivots float64
		for n := 0; n < b.N; n++ {
			pivots = 0
			for i, p := range probs {
				sol, err := ws.Solve(p, Options{})
				check(b, i, sol, err, &pivots)
			}
		}
		//lint:ignore floatcmp integer-valued pivot totals compare exactly
		if pivots != refPivots {
			b.Fatalf("pivot total %v != reference %v", pivots, refPivots)
		}
		b.ReportMetric(float64(b.N*len(probs))/b.Elapsed().Seconds(), "instances/sec")
		b.ReportMetric(pivots, "pivots")
	})
}
