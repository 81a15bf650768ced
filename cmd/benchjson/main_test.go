package main

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkMIPColdVsWarm/cold/n=16-16         	       5	 930224881 ns/op	       913.0 nodes	         0 warm-fraction
BenchmarkMIPColdVsWarm/warm/n=16-16         	       5	 687563467 ns/op	       999.0 nodes	         0.9990 warm-fraction
BenchmarkWarmVsColdLP/cold/n=20,m=40-16     	      20	    290456 ns/op	        22.00 pivots
BenchmarkWarmVsColdLP/warm/n=20,m=40-16     	      20	     43548 ns/op	         4.000 pivots
BenchmarkApproxEndToEnd-16                  	     100	  11111111 ns/op
PASS
ok  	repro	42.0s
`

func runTool(t *testing.T, input string, args ...string) (*report, error) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	err := run(args, strings.NewReader(input), &stdout, &stderr)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatalf("invalid JSON output: %v\n%s", err, stdout.String())
	}
	return &rep, nil
}

// pairsOf returns the report's pairs with the given baseline segment.
func pairsOf(rep *report, baseline string) []segmentPair {
	var out []segmentPair
	for _, p := range rep.Pairs {
		if p.Baseline == baseline {
			out = append(out, p)
		}
	}
	return out
}

func TestBenchjsonParsesAndPairs(t *testing.T) {
	rep, err := runTool(t, sampleBench, "-label", "pr2")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Label != "pr2" || rep.Goos != "linux" || rep.Goarch != "amd64" {
		t.Errorf("header = %q/%q/%q, want pr2/linux/amd64", rep.Label, rep.Goos, rep.Goarch)
	}
	if len(rep.Benchmarks) != 5 {
		t.Fatalf("got %d benchmarks, want 5", len(rep.Benchmarks))
	}
	first := rep.Benchmarks[0]
	if first.Name != "BenchmarkMIPColdVsWarm/cold/n=16" || first.Iterations != 5 {
		t.Errorf("first benchmark = %+v", first)
	}
	if math.Abs(first.Metrics["nodes"]-913.0) > 0 {
		t.Errorf("nodes metric = %v, want 913", first.Metrics["nodes"])
	}
	if len(rep.Pairs) != 2 {
		t.Fatalf("got %d pairs, want 2:\n%+v", len(rep.Pairs), rep.Pairs)
	}
	mip := rep.Pairs[0]
	if mip.Name != "BenchmarkMIPColdVsWarm/*/n=16" || mip.Baseline != "cold" || mip.Variant != "warm" {
		t.Errorf("pair = %+v", mip)
	}
	if math.Abs(mip.Speedup-930224881.0/687563467.0) > 1e-12 {
		t.Errorf("speedup = %v", mip.Speedup)
	}
	//lint:ignore floatcmp parsed node metrics round-trip the exact benchmark literals
	if mip.BaselineNodes != 913 || mip.VariantNodes != 999 ||
		math.Abs(mip.NodeReduction-913.0/999.0) > 1e-12 {
		t.Errorf("node reduction fields = %+v", mip)
	}
}

func TestBenchjsonErrors(t *testing.T) {
	if _, err := runTool(t, "no benchmarks here\n"); err == nil ||
		!strings.Contains(err.Error(), "no benchmark result lines") {
		t.Errorf("empty input error = %v", err)
	}
	if _, err := runTool(t, sampleBench, "positional"); err == nil ||
		!strings.Contains(err.Error(), "unexpected argument") {
		t.Errorf("positional arg error = %v", err)
	}
	if _, err := runTool(t, sampleBench, "-no-such-flag"); err == nil {
		t.Error("bad flag accepted")
	}
}

func TestBenchjsonMergesRepeatedRuns(t *testing.T) {
	input := "BenchmarkX/cold/a-8 3 100 ns/op\n" +
		"BenchmarkX/warm/a-8 3 80 ns/op\n" +
		"BenchmarkX/cold/a-8 3 90 ns/op\n" +
		"BenchmarkX/warm/a-8 3 95 ns/op\n"
	rep, err := runTool(t, input)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("got %d benchmarks, want 2 after merging: %+v", len(rep.Benchmarks), rep.Benchmarks)
	}
	if len(rep.Pairs) != 1 {
		t.Fatalf("got %d pairs, want 1", len(rep.Pairs))
	}
	p := rep.Pairs[0]
	if math.Abs(p.BaselineNsOp-90) > 0 || math.Abs(p.VariantNsOp-80) > 0 {
		t.Errorf("pair kept %v/%v, want min runs 90/80", p.BaselineNsOp, p.VariantNsOp)
	}
}

// TestBenchjsonMergesAllocsAndWork: three repeats of one benchmark keep
// the fastest run's ns/op and the smallest allocs/op, which here is not
// the fastest run's (the IncrementalResolve/cold flicker, 19,589 against
// 19,588), and repeats that disagree on a work count fail, naming the
// benchmark and the count.
func TestBenchjsonMergesAllocsAndWork(t *testing.T) {
	input := "BenchmarkIncrementalResolve/cold-2 3 3000000 ns/op 40.00 nodes 1234 B/op 19588 allocs/op\n" +
		"BenchmarkIncrementalResolve/cold-2 3 2900000 ns/op 40.00 nodes 1236 B/op 19589 allocs/op\n" +
		"BenchmarkIncrementalResolve/cold-2 3 3100000 ns/op 40.00 nodes 1234 B/op 19588 allocs/op\n"
	rep, err := runTool(t, input)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 1 {
		t.Fatalf("got %d benchmarks, want 1 after merging: %+v", len(rep.Benchmarks), rep.Benchmarks)
	}
	b := rep.Benchmarks[0]
	//lint:ignore floatcmp parsed metrics round-trip the exact benchmark literals
	if b.NsPerOp != 2900000 || b.Metrics["allocs/op"] != 19588 || b.Metrics["nodes"] != 40 {
		t.Errorf("merged %+v, want the fastest run's 2,900,000 ns/op with 19,588 allocs/op and 40 nodes", b)
	}

	for _, unit := range workMetrics {
		bad := "BenchmarkX/a-2 3 100 ns/op 7 " + unit + "\n" + "BenchmarkX/a-2 3 90 ns/op 8 " + unit + "\n"
		if _, err := runTool(t, bad); err == nil ||
			!strings.Contains(err.Error(), "BenchmarkX/a") || !strings.Contains(err.Error(), unit) {
			t.Errorf("%s differing between repeats: error %v, want one naming BenchmarkX/a and %s", unit, err, unit)
		}
	}
	missing := "BenchmarkX/a-2 3 100 ns/op 7 pivots\nBenchmarkX/a-2 3 90 ns/op\n"
	if _, err := runTool(t, missing); err == nil {
		t.Error("a repeat without the pivots its sibling reports was accepted")
	}
}

func TestBenchjsonPairsRowsBounds(t *testing.T) {
	input := "BenchmarkMIPBoundsVsRows/bounds/n=16-8 2 200000 ns/op 177.0 node-rows 937.0 nodes\n" +
		"BenchmarkMIPBoundsVsRows/rows/n=16-8 1 500000 ns/op 241.0 node-rows 997.0 nodes\n" +
		"BenchmarkBoundsVsRowsLP/bounds/tasks=100,mach=5-8 3 45000 ns/op 601.0 basis-rows\n" +
		"BenchmarkBoundsVsRowsLP/rows/tasks=100,mach=5-8 1 90000 ns/op 1101 basis-rows\n" +
		"BenchmarkBoundsVsRowsLP/rows/tasks=50,mach=3-8 1 7000 ns/op\n"
	rep, err := runTool(t, input)
	if err != nil {
		t.Fatal(err)
	}
	rows := pairsOf(rep, "rows")
	if len(rows) != len(rep.Pairs) {
		t.Errorf("unexpected pairs from other rules: %+v", rep.Pairs)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows/bounds pairs, want 2 (unpaired rows dropped):\n%+v", len(rows), rows)
	}
	lpPair := rows[0]
	if lpPair.Name != "BenchmarkBoundsVsRowsLP/*/tasks=100,mach=5" || math.Abs(lpPair.Speedup-2) > 1e-12 {
		t.Errorf("lp pair = %+v", lpPair)
	}
	mipPair := rows[1]
	if mipPair.Name != "BenchmarkMIPBoundsVsRows/*/n=16" || math.Abs(mipPair.Speedup-2.5) > 1e-12 {
		t.Errorf("mip pair = %+v", mipPair)
	}
}

// writeReport runs the tool on raw bench output and writes the JSON to a
// temp file, returning its path — the setup for the -diff tests.
func writeReport(t *testing.T, input string) string {
	t.Helper()
	path := t.TempDir() + "/bench.json"
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-o", path}, strings.NewReader(input), &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestBenchjsonDiff(t *testing.T) {
	oldPath := writeReport(t, "BenchmarkA-8 10 100 ns/op\nBenchmarkB-8 10 100 ns/op\nBenchmarkGone-8 1 5 ns/op\n")
	newPath := writeReport(t, "BenchmarkA-8 10 150 ns/op\nBenchmarkB-8 10 100 ns/op\nBenchmarkNew-8 1 7 ns/op\n")

	// Within threshold: 1.5x slowdown passes at the default 2.0.
	var stdout bytes.Buffer
	if err := run([]string{"-diff", oldPath, newPath}, strings.NewReader(""), &stdout, &stdout); err != nil {
		t.Fatalf("diff within threshold failed: %v\n%s", err, stdout.String())
	}
	out := stdout.String()
	for _, want := range []string{"BenchmarkA", "x1.50", "added  BenchmarkNew", "gone   BenchmarkGone"} {
		if !strings.Contains(out, want) {
			t.Errorf("diff output missing %q:\n%s", want, out)
		}
	}

	// Tight threshold: the same 1.5x slowdown is now a regression.
	stdout.Reset()
	err := run([]string{"-diff", "-threshold", "1.2", oldPath, newPath}, strings.NewReader(""), &stdout, &stdout)
	if err == nil || !strings.Contains(err.Error(), "regressed") {
		t.Fatalf("diff beyond threshold: err = %v", err)
	}
	if !strings.Contains(stdout.String(), "SLOWER BenchmarkA") {
		t.Errorf("diff output missing SLOWER verdict:\n%s", stdout.String())
	}

	// Argument validation.
	if err := run([]string{"-diff", oldPath}, strings.NewReader(""), &stdout, &stdout); err == nil {
		t.Error("diff with one argument accepted")
	}
	if err := run([]string{"-diff", oldPath, "/no/such/file.json"}, strings.NewReader(""), &stdout, &stdout); err == nil {
		t.Error("diff with missing file accepted")
	}
}

func TestBenchjsonDiffGatesMetrics(t *testing.T) {
	oldPath := writeReport(t,
		"BenchmarkBatch-8 10 100 ns/op 0 allocs/op 5000 instances/sec\n"+
			"BenchmarkTree-8 10 100 ns/op 40.0 nodes\n"+
			"BenchmarkFree-8 10 100 ns/op 9.0 pivots 0.5 warm-fraction\n")

	// allocs/op 0 -> 2 is a moved count, even with ns/op and everything
	// else flat: a zero-allocation pin cannot silently rot.
	leaky := writeReport(t,
		"BenchmarkBatch-8 10 100 ns/op 2 allocs/op 5000 instances/sec\n"+
			"BenchmarkTree-8 10 100 ns/op 40.0 nodes\n"+
			"BenchmarkFree-8 10 100 ns/op 9.0 pivots 0.5 warm-fraction\n")
	var stdout bytes.Buffer
	err := run([]string{"-diff", oldPath, leaky}, strings.NewReader(""), &stdout, &stdout)
	if err == nil || !strings.Contains(err.Error(), "1 count(s) moved") {
		t.Fatalf("allocs/op 0->2 passed the diff: err = %v\n%s", err, stdout.String())
	}
	if !strings.Contains(stdout.String(), "MOVED  BenchmarkBatch") || !strings.Contains(stdout.String(), "allocs/op") {
		t.Errorf("diff output missing MOVED allocs/op verdict:\n%s", stdout.String())
	}

	// instances/sec is higher-better: dropping 5000 -> 2000 fails at the
	// default threshold 2.0, with every count flat.
	slow := writeReport(t,
		"BenchmarkBatch-8 10 100 ns/op 0 allocs/op 2000 instances/sec\n"+
			"BenchmarkTree-8 10 100 ns/op 40.0 nodes\n"+
			"BenchmarkFree-8 10 100 ns/op 9.0 pivots 0.5 warm-fraction\n")
	stdout.Reset()
	err = run([]string{"-diff", oldPath, slow}, strings.NewReader(""), &stdout, &stdout)
	if err == nil || !strings.Contains(err.Error(), "1 benchmark(s) regressed") {
		t.Fatalf("throughput regression: err = %v\n%s", err, stdout.String())
	}
	if !strings.Contains(stdout.String(), "WORSE  BenchmarkBatch") {
		t.Errorf("diff output missing WORSE instances/sec line:\n%s", stdout.String())
	}

	// Within-threshold drift of the rates and of the ungated metrics
	// passes while every count holds.
	drift := writeReport(t,
		"BenchmarkBatch-8 10 100 ns/op 0 allocs/op 4000 instances/sec\n"+
			"BenchmarkTree-8 10 150 ns/op 40.0 nodes\n"+
			"BenchmarkFree-8 10 100 ns/op 9.0 pivots 0.9 warm-fraction\n")
	stdout.Reset()
	if err := run([]string{"-diff", oldPath, drift}, strings.NewReader(""), &stdout, &stdout); err != nil {
		t.Fatalf("within-threshold metric drift failed: %v\n%s", err, stdout.String())
	}

	// A metric present on only one side is never gated.
	missing := writeReport(t,
		"BenchmarkBatch-8 10 100 ns/op\n"+
			"BenchmarkTree-8 10 100 ns/op\n"+
			"BenchmarkFree-8 10 100 ns/op\n")
	stdout.Reset()
	if err := run([]string{"-diff", oldPath, missing}, strings.NewReader(""), &stdout, &stdout); err != nil {
		t.Fatalf("one-sided metrics failed the diff: %v\n%s", err, stdout.String())
	}
}

// TestBenchjsonDiffGatesCountsExactly: every deterministic count fails the
// diff on a move of one, whatever the threshold, and each moved count is
// named with the metric it moved.
func TestBenchjsonDiffGatesCountsExactly(t *testing.T) {
	oldPath := writeReport(t,
		"BenchmarkTree-8 1 100 ns/op 40 nodes 7 strong-branches\n"+
			"BenchmarkLP/cold/n=20,m=40-8 10 100 ns/op 22 pivots 201 basis-rows\n"+
			"BenchmarkFR/n=100-8 10 100 ns/op 18 probes/op\n"+
			"BenchmarkEvents-8 3 100 ns/op 34454 allocs/op\n")
	for _, tc := range []struct{ line, bench, unit string }{
		{"BenchmarkTree-8 1 100 ns/op 41 nodes 7 strong-branches\n", "BenchmarkTree", "nodes"},
		{"BenchmarkTree-8 1 100 ns/op 40 nodes 6 strong-branches\n", "BenchmarkTree", "strong-branches"},
		{"BenchmarkLP/cold/n=20,m=40-8 10 100 ns/op 23 pivots 201 basis-rows\n", "BenchmarkLP/cold/n=20,m=40", "pivots"},
		{"BenchmarkLP/cold/n=20,m=40-8 10 100 ns/op 22 pivots 202 basis-rows\n", "BenchmarkLP/cold/n=20,m=40", "basis-rows"},
		{"BenchmarkFR/n=100-8 10 100 ns/op 17 probes/op\n", "BenchmarkFR/n=100", "probes/op"},
		{"BenchmarkEvents-8 3 100 ns/op 34453 allocs/op\n", "BenchmarkEvents", "allocs/op"},
	} {
		newPath := writeReport(t, tc.line)
		var stdout bytes.Buffer
		err := run([]string{"-diff", "-threshold", "100", oldPath, newPath}, strings.NewReader(""), &stdout, &stdout)
		if err == nil || !strings.Contains(err.Error(), "1 count(s) moved") {
			t.Errorf("%s %s moved by one: err = %v\n%s", tc.bench, tc.unit, err, stdout.String())
			continue
		}
		want := "MOVED  " + tc.bench
		if !strings.Contains(stdout.String(), want) || !strings.Contains(stdout.String(), "-allow "+tc.bench+":"+tc.unit) {
			t.Errorf("%s %s: output does not name the move:\n%s", tc.bench, tc.unit, stdout.String())
		}
	}
}

// TestBenchjsonDiffAllow: -allow declares moves by bench:metric, accepts
// benchmark names with commas in them, may be repeated, reports entries
// whose count did not move, and lets undeclared moves still fail.
func TestBenchjsonDiffAllow(t *testing.T) {
	oldPath := writeReport(t,
		"BenchmarkLP/cold/n=20,m=40-8 10 100 ns/op 22 pivots\n"+
			"BenchmarkTree-8 1 100 ns/op 40 nodes\n"+
			"BenchmarkEvents-8 3 100 ns/op 100 allocs/op\n")
	newPath := writeReport(t,
		"BenchmarkLP/cold/n=20,m=40-8 10 100 ns/op 23 pivots\n"+
			"BenchmarkTree-8 1 100 ns/op 41 nodes\n"+
			"BenchmarkEvents-8 3 100 ns/op 105 allocs/op\n")

	var stdout bytes.Buffer
	args := []string{"-diff",
		"-allow", "BenchmarkLP/cold/n=20,m=40:pivots,BenchmarkTree:nodes",
		"-allow", "BenchmarkEvents:allocs/op,BenchmarkGone:nodes",
		oldPath, newPath}
	if err := run(args, strings.NewReader(""), &stdout, &stdout); err != nil {
		t.Fatalf("declared moves failed the diff: %v\n%s", err, stdout.String())
	}
	out := stdout.String()
	for _, want := range []string{"moved  BenchmarkLP/cold/n=20,m=40", "(allowed)", "unused -allow BenchmarkGone:nodes"} {
		if !strings.Contains(out, want) {
			t.Errorf("diff output missing %q:\n%s", want, out)
		}
	}

	// Declaring one move leaves the other two failing.
	stdout.Reset()
	err := run([]string{"-diff", "-allow", "BenchmarkTree:nodes", oldPath, newPath}, strings.NewReader(""), &stdout, &stdout)
	if err == nil || !strings.Contains(err.Error(), "2 count(s) moved") {
		t.Fatalf("undeclared moves: err = %v\n%s", err, stdout.String())
	}

	// Malformed entries and -allow outside -diff are usage errors.
	for _, bad := range [][]string{
		{"-diff", "-allow", "BenchmarkTree", oldPath, newPath},
		{"-diff", "-allow", "BenchmarkTree:", oldPath, newPath},
		{"-diff", "-allow", ":nodes", oldPath, newPath},
		{"-allow", "BenchmarkTree:nodes"},
	} {
		if err := run(bad, strings.NewReader(sampleBench), &stdout, &stdout); err == nil {
			t.Errorf("run(%q) accepted", bad)
		}
	}
}

func TestBenchjsonSkipsMalformedLines(t *testing.T) {
	input := "BenchmarkBroken-8 not-a-number 12 ns/op\n" +
		"BenchmarkOK-8 10 42.5 ns/op\n"
	rep, err := runTool(t, input)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 1 || rep.Benchmarks[0].Name != "BenchmarkOK" {
		t.Fatalf("benchmarks = %+v", rep.Benchmarks)
	}
	if math.Abs(rep.Benchmarks[0].NsPerOp-42.5) > 0 {
		t.Errorf("ns/op = %v", rep.Benchmarks[0].NsPerOp)
	}
}
