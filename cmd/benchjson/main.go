// Command benchjson converts `go test -bench` output into a JSON record
// and diffs two such records for regressions.
//
// Usage:
//
//	go test -bench=... ./... | benchjson [-o file.json] [-label text]
//	benchjson -diff [-threshold 2.0] [-allow bench:metric,...] old.json new.json
//
// Every benchmark result line is captured with its iteration count, ns/op
// and any custom metrics reported via b.ReportMetric. Benchmarks are then
// paired by one A/B rule: a benchmark whose sub-test path holds a baseline
// segment is paired with its twin that holds the variant segment in the
// same place, for each (baseline, variant) in segmentRules — "cold" vs
// "warm" (BenchmarkMIPColdVsWarm/cold/n=16 and .../warm/n=16) and "rows"
// vs "bounds". Each pair records the
// baseline/variant speedup and, when both sides report a nodes metric
// (the cold/warm MIP pairs), the node-count reduction — which is how
// scripts/verify.sh -bench produces the committed BENCH_*.json records.
//
// In -diff mode the two JSON records are matched by benchmark name and the
// new/old ns-per-op ratio is printed per benchmark; any common benchmark
// slower than the threshold factor makes the exit status non-zero, which
// is how scripts/verify.sh -bench gates new results against the committed
// baseline. Benchmarks present in only one record are listed but never
// fail the diff.
//
// The diff additionally gates custom metrics when both records carry them.
// The deterministic work counts — nodes, pivots, strong-branches,
// probes/op, basis-rows and allocs/op — must be equal: a count that moves
// is printed by name and fails the diff unless -allow lists it as
// "Benchmark/sub:metric" (comma-separated, repeatable; commas inside a
// benchmark name are kept). instances/sec and events/sec are gated under
// the threshold factor, failing when the new value drops below
// old/threshold. Metrics outside these sets (warm-fraction, B/op, ...) are
// recorded but never gated.
//
// In -pairs mode the two arguments are files of dsctbench result lines
// from alternating runs of a base and a changed build (see pairs.go and
// scripts/benchpairs.sh); the summary gives each metric's medians,
// quartiles and the change's win count.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// benchResult is one parsed benchmark output line.
type benchResult struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// segmentRules are the (baseline, variant) path-segment pairings: every
// benchmark carrying the baseline segment is paired with its twin carrying
// the variant segment in the same place.
var segmentRules = []struct{ baseline, variant string }{
	{"cold", "warm"},   // warm-started vs from-scratch solves
	{"rows", "bounds"}, // explicit bound rows vs implicit boxes
}

// segmentPair joins a baseline benchmark with its variant twin. Name is the
// shared path with the differing segment replaced by "*"; Speedup is
// baseline/variant ns/op. When both sides report a nodes metric the node
// counts and their baseline/variant ratio (NodeReduction: how many times
// fewer nodes the variant explored) are recorded too.
type segmentPair struct {
	Name          string  `json:"name"`
	Baseline      string  `json:"baseline"`
	Variant       string  `json:"variant"`
	BaselineNsOp  float64 `json:"baseline_ns_per_op"`
	VariantNsOp   float64 `json:"variant_ns_per_op"`
	Speedup       float64 `json:"speedup"`
	BaselineNodes float64 `json:"baseline_nodes,omitempty"`
	VariantNodes  float64 `json:"variant_nodes,omitempty"`
	NodeReduction float64 `json:"node_reduction,omitempty"`
}

// report is the top-level JSON document.
type report struct {
	Label      string        `json:"label,omitempty"`
	Goos       string        `json:"goos,omitempty"`
	Goarch     string        `json:"goarch,omitempty"`
	CPU        string        `json:"cpu,omitempty"`
	Benchmarks []benchResult `json:"benchmarks"`
	Pairs      []segmentPair `json:"pairs,omitempty"`
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(stderr)
	outPath := fs.String("o", "", "write JSON to this file instead of stdout")
	label := fs.String("label", "", "free-form label recorded in the document")
	diffMode := fs.Bool("diff", false, "diff two JSON records (args: old.json new.json) instead of parsing stdin")
	threshold := fs.Float64("threshold", 2.0, "with -diff, fail when any common benchmark is slower than this factor")
	allow := allowList{}
	fs.Var(allow, "allow", "with -diff, count moves this change declares, as bench:metric[,bench:metric...]")
	pairsMode := fs.Bool("pairs", false, "summarise alternating benchmark runs (args: base.jsonl change.jsonl) instead of parsing stdin")
	spec := fs.String("benchmark", "BENCHMARK.json", "with -pairs, the file giving each metric's better direction")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *pairsMode {
		if *diffMode || fs.NArg() != 2 {
			return fmt.Errorf("-pairs needs exactly two arguments: base.jsonl change.jsonl")
		}
		return summarizePairs(*spec, fs.Arg(0), fs.Arg(1), stdout)
	}
	if *diffMode {
		if fs.NArg() != 2 {
			return fmt.Errorf("-diff needs exactly two arguments: old.json new.json")
		}
		return diff(fs.Arg(0), fs.Arg(1), *threshold, allow, stdout)
	}
	if len(allow) > 0 {
		return fmt.Errorf("-allow applies only with -diff")
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q (input is read from stdin)", fs.Arg(0))
	}

	rep, err := parse(stdin)
	if err != nil {
		return err
	}
	rep.Label = *label
	if len(rep.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark result lines found on stdin")
	}
	if rep.Benchmarks, err = mergeRepeats(rep.Benchmarks); err != nil {
		return err
	}
	for _, rule := range segmentRules {
		rep.Pairs = append(rep.Pairs, pairSegments(rep.Benchmarks, rule.baseline, rule.variant)...)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *outPath == "" {
		_, err = stdout.Write(data)
		return err
	}
	return os.WriteFile(*outPath, data, 0o644)
}

// parse scans go test -bench output, collecting result lines and the
// goos/goarch/cpu header lines.
func parse(r io.Reader) (*report, error) {
	rep := &report{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			res, ok := parseResultLine(line)
			if ok {
				rep.Benchmarks = append(rep.Benchmarks, res)
			}
		}
	}
	return rep, sc.Err()
}

// parseResultLine parses one line of the form
//
//	BenchmarkName/sub-8   5   930224881 ns/op   913.0 nodes   0.99 warm-fraction
//
// The -8 GOMAXPROCS suffix is stripped from the name. Lines that do not
// carry an ns/op column (e.g. "BenchmarkFoo--- FAIL") are rejected.
func parseResultLine(line string) (benchResult, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return benchResult{}, false
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return benchResult{}, false
	}
	res := benchResult{Name: name, Iterations: iters}
	sawNsOp := false
	// Remaining fields come in (value, unit) pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return benchResult{}, false
		}
		unit := fields[i+1]
		if unit == "ns/op" {
			res.NsPerOp = v
			sawNsOp = true
			continue
		}
		if res.Metrics == nil {
			res.Metrics = map[string]float64{}
		}
		res.Metrics[unit] = v
	}
	return res, sawNsOp
}

// mergeRepeats collapses repeated runs of the same benchmark (go test
// -count=N emits one line per run) into one record, keeping the order of
// first appearance. ns/op and the rates come from the fastest run, the
// conventional noise-robust statistic for wall-clock comparisons, and
// allocs/op is the smallest over the repeats, since the count of
// unchanged code can flicker by one between runs (one in a few runs of
// BenchmarkIncrementalResolve/cold reads 19,589 against 19,588).
// The work counts in workMetrics are the solver's own and must agree
// between repeats; a benchmark whose repeats differ is an error, named.
func mergeRepeats(results []benchResult) ([]benchResult, error) {
	idx := make(map[string]int, len(results))
	var merged, first []benchResult
	for _, r := range results {
		i, seen := idx[r.Name]
		if !seen {
			idx[r.Name] = len(merged)
			merged = append(merged, r)
			first = append(first, r)
			continue
		}
		for _, unit := range workMetrics {
			a, okA := first[i].Metrics[unit]
			b, okB := r.Metrics[unit]
			//lint:ignore floatcmp deterministic counts round-trip their integer literals exactly
			if okA != okB || a != b {
				return nil, fmt.Errorf("%s: %s differs between repeats (%g and %g)", r.Name, unit, a, b)
			}
		}
		allocs, okA := merged[i].Metrics["allocs/op"]
		if r.NsPerOp < merged[i].NsPerOp {
			merged[i] = r
		}
		if b, okB := r.Metrics["allocs/op"]; okA && okB {
			merged[i].Metrics = maps.Clone(merged[i].Metrics)
			merged[i].Metrics["allocs/op"] = math.Min(allocs, b)
		}
	}
	return merged, nil
}

// pairSegments matches benchmarks that differ only by a baseline vs
// variant path segment (e.g. "cold"/"warm" or "rows"/"bounds"), sorted by
// name.
func pairSegments(results []benchResult, baseline, variant string) []segmentPair {
	byName := make(map[string]benchResult, len(results))
	for _, r := range results {
		byName[r.Name] = r
	}
	var pairs []segmentPair
	for _, r := range results {
		key, ok := replaceSegment(r.Name, baseline, variant)
		if !ok {
			continue
		}
		v, ok := byName[key]
		if !ok || v.NsPerOp <= 0 {
			continue
		}
		generic, _ := replaceSegment(r.Name, baseline, "*")
		p := segmentPair{
			Name: generic, Baseline: baseline, Variant: variant,
			BaselineNsOp: r.NsPerOp, VariantNsOp: v.NsPerOp, Speedup: r.NsPerOp / v.NsPerOp,
		}
		if bn, vn := r.Metrics["nodes"], v.Metrics["nodes"]; bn > 0 && vn > 0 {
			p.BaselineNodes, p.VariantNodes, p.NodeReduction = bn, vn, bn/vn
		}
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].Name < pairs[j].Name })
	return pairs
}

// countMetrics are the deterministic work counts the diff holds to
// equality: the same code on the same inputs reproduces each of them
// exactly, so any move is a change of behaviour, never host noise.
var countMetrics = []string{"nodes", "pivots", "strong-branches", "probes/op", "basis-rows", "allocs/op"}

// workMetrics are the counts among countMetrics that only the solver's
// own decisions move, which mergeRepeats holds equal between repeats.
var workMetrics = []string{"nodes", "pivots", "strong-branches", "probes/op", "basis-rows"}

// rateMetrics are the higher-is-better throughputs the diff gates under
// the threshold factor, like ns/op.
var rateMetrics = []string{"instances/sec", "events/sec"}

// allowList holds the count moves a change declares, keyed
// "Benchmark/sub:metric".
type allowList map[string]bool

func (a allowList) String() string { return strings.Join(a.sorted(), ",") }

// sorted returns the entries in order, so every listing is deterministic.
func (a allowList) sorted() []string {
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Set adds a comma-separated list of bench:metric entries. Benchmark
// names may themselves contain commas (n=20,m=40), so a piece without a
// colon is joined to the piece after it.
func (a allowList) Set(v string) error {
	pending := ""
	for _, piece := range strings.Split(v, ",") {
		entry := pending + piece
		if !strings.Contains(piece, ":") {
			pending = entry + ","
			continue
		}
		pending = ""
		i := strings.LastIndex(entry, ":")
		if i == 0 || i == len(entry)-1 {
			return fmt.Errorf("-allow entry %q is not bench:metric", entry)
		}
		a[entry] = true
	}
	if pending != "" {
		return fmt.Errorf("-allow entry %q is not bench:metric", strings.TrimSuffix(pending, ","))
	}
	return nil
}

// diff loads two reports and compares every benchmark they share by name.
// Ratios above threshold (new slower than old by more than that factor)
// are regressions, and so are rate metrics that drop by more than it.
// Count metrics must match exactly unless allow declares the move. Any
// regression or undeclared move makes the returned error non-nil.
// Benchmarks present in only one record are listed but never fail the
// diff, so adding or retiring benchmarks between baselines stays cheap.
func diff(oldPath, newPath string, threshold float64, allow allowList, stdout io.Writer) error {
	oldRep, err := loadReport(oldPath)
	if err != nil {
		return err
	}
	newRep, err := loadReport(newPath)
	if err != nil {
		return err
	}
	oldBy := make(map[string]benchResult, len(oldRep.Benchmarks))
	for _, r := range oldRep.Benchmarks {
		oldBy[r.Name] = r
	}
	newBy := make(map[string]benchResult, len(newRep.Benchmarks))
	used := allowList{}
	var regressions, moved int
	for _, r := range newRep.Benchmarks {
		newBy[r.Name] = r
		old, ok := oldBy[r.Name]
		if !ok {
			if _, err := fmt.Fprintf(stdout, "added  %-60s %12.0f ns/op\n", r.Name, r.NsPerOp); err != nil {
				return err
			}
			continue
		}
		if old.NsPerOp <= 0 {
			continue
		}
		ratio := r.NsPerOp / old.NsPerOp
		verdict := "ok    "
		if ratio > threshold {
			verdict = "SLOWER"
			regressions++
		}
		if _, err := fmt.Fprintf(stdout, "%s %-60s %12.0f -> %12.0f ns/op  (x%.2f)\n",
			verdict, r.Name, old.NsPerOp, r.NsPerOp, ratio); err != nil {
			return err
		}
		for _, unit := range countMetrics {
			newV, okNew := r.Metrics[unit]
			oldV, okOld := old.Metrics[unit]
			if !okNew || !okOld {
				continue
			}
			//lint:ignore floatcmp deterministic counts round-trip their integer literals exactly
			same := newV == oldV
			verdict, note := "ok    ", ""
			if key := r.Name + ":" + unit; !same && allow[key] {
				verdict, note = "moved ", "  (allowed)"
				used[key] = true
			} else if !same {
				verdict, note = "MOVED ", "  (declare with -allow "+key+")"
				moved++
			}
			if _, err := fmt.Fprintf(stdout, "%s %-60s %12g -> %12g %s%s\n",
				verdict, r.Name, oldV, newV, unit, note); err != nil {
				return err
			}
		}
		for _, unit := range rateMetrics {
			newV, okNew := r.Metrics[unit]
			oldV, okOld := old.Metrics[unit]
			if !okNew || !okOld {
				continue
			}
			mRatio, bad := 0.0, oldV > 0
			if newV > 0 {
				mRatio = oldV / newV
				bad = mRatio > threshold
			}
			mVerdict := "ok    "
			if bad {
				mVerdict = "WORSE "
				regressions++
			}
			if _, err := fmt.Fprintf(stdout, "%s %-60s %12.2f -> %12.2f %s  (x%.2f)\n",
				mVerdict, r.Name, oldV, newV, unit, mRatio); err != nil {
				return err
			}
		}
	}
	for _, r := range oldRep.Benchmarks {
		if _, ok := newBy[r.Name]; !ok {
			if _, err := fmt.Fprintf(stdout, "gone   %-60s\n", r.Name); err != nil {
				return err
			}
		}
	}
	for _, key := range allow.sorted() {
		if !used[key] {
			if _, err := fmt.Fprintf(stdout, "unused -allow %s: the count did not move\n", key); err != nil {
				return err
			}
		}
	}
	var errs []string
	if regressions > 0 {
		errs = append(errs, fmt.Sprintf("%d benchmark(s) regressed beyond x%.2f", regressions, threshold))
	}
	if moved > 0 {
		errs = append(errs, fmt.Sprintf("%d count(s) moved without -allow", moved))
	}
	if len(errs) > 0 {
		return errors.New(strings.Join(errs, "; "))
	}
	return nil
}

// loadReport reads one JSON document produced by benchjson.
func loadReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &report{}
	if err := json.Unmarshal(data, rep); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return rep, nil
}

// replaceSegment replaces the first "/"-delimited path segment equal to old
// with repl, reporting whether such a segment existed.
func replaceSegment(name, old, repl string) (string, bool) {
	segs := strings.Split(name, "/")
	for i, s := range segs {
		if s == old {
			segs[i] = repl
			return strings.Join(segs, "/"), true
		}
	}
	return name, false
}
