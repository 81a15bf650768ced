package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// pairFixture writes a BENCHMARK.json-shaped spec and two run files of
// four pairs into a temporary directory.
func pairFixture(t *testing.T) (spec, base, change string) {
	t.Helper()
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	spec = write("BENCHMARK.json", `{"end_to_end": [
  {"name": "throughput_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
  {"name": "latency_p50_s", "unit": "s", "better": "lower", "bound": 0.25},
  {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.25}],
 "per_layer": [{"name": "lp.iterations", "unit": "count", "better": "lower"}]}`)
	line := func(tp, p50, rss float64) string {
		var b strings.Builder
		b.WriteString(`{"correct":true,"attempted":100,"failed":0,"metrics":{`)
		b.WriteString(`"throughput_per_s":{"value":` + ftoa(tp) + `,"unit":"1/s"},`)
		b.WriteString(`"latency_p50_s":{"value":` + ftoa(p50) + `,"unit":"s"},`)
		b.WriteString(`"peak_rss_mb":{"value":` + ftoa(rss) + `,"unit":"MB"}}}`)
		return b.String() + "\n"
	}
	base = write("base.jsonl", line(100, 0.010, 50)+line(110, 0.011, 51)+"\n"+line(90, 0.009, 52)+line(105, 0.010, 50))
	change = write("change.jsonl", line(150, 0.006, 50)+line(160, 0.012, 51)+line(140, 0.006, 52)+line(155, 0.007, 49))
	return spec, base, change
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// TestBenchjsonPairs: the pair summary reports each side's median and
// quartiles (linear interpolation between order statistics), the change's
// wins in each metric's better direction, and marks a metric resolved
// only when the change wins 9 pairs in 10 and the medians differ by more
// than the base's interquartile range. Metrics the runs do not report
// are skipped.
func TestBenchjsonPairs(t *testing.T) {
	spec, base, change := pairFixture(t)
	var out, errOut bytes.Buffer
	if err := run([]string{"-pairs", "-benchmark", spec, base, change}, strings.NewReader(""), &out, &errOut); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	lines := map[string]string{}
	for _, l := range strings.Split(got, "\n") {
		if f := strings.Fields(l); len(f) > 0 {
			lines[f[0]] = l
		}
	}
	if !strings.Contains(got, "4 pairs; failed/attempted per run: base 0/100 0/100 0/100 0/100") {
		t.Errorf("missing the pair count and failure line:\n%s", got)
	}
	// Throughput: base 90 100 105 110 (median 102.5, quartiles 97.5 and
	// 106.25); change 140 150 155 160 (median 152.5); won 4 of 4.
	for _, want := range []string{"102.5", "97.5", "106.25", "152.5", "4/4", "resolved"} {
		if !strings.Contains(lines["throughput_per_s"], want) {
			t.Errorf("throughput line %q lacks %q", lines["throughput_per_s"], want)
		}
	}
	// Latency is lower-better: the change lost pair 2, so 3 of 4 wins is
	// short of 9 in 10 and the metric is not resolved.
	if l := lines["latency_p50_s"]; !strings.Contains(l, "3/4") || strings.Contains(l, "resolved") {
		t.Errorf("latency line = %q, want 3/4 wins, not resolved", l)
	}
	// Equal medians: no win on ties, never resolved.
	if l := lines["peak_rss_mb"]; !strings.Contains(l, "1/4") || strings.Contains(l, "resolved") {
		t.Errorf("peak RSS line = %q, want 1/4 wins, not resolved", l)
	}
	if _, ok := lines["lp.iterations"]; ok {
		t.Errorf("a metric no run reports was summarised:\n%s", got)
	}

	if err := run([]string{"-pairs", "-benchmark", spec, base}, strings.NewReader(""), &out, &errOut); err == nil {
		t.Error("-pairs with one file did not fail")
	}
	short := filepath.Join(t.TempDir(), "short.jsonl")
	if err := os.WriteFile(short, []byte(strings.SplitAfter(mustRead(t, change), "\n")[0]), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-pairs", "-benchmark", spec, base, short}, strings.NewReader(""), &out, &errOut); err == nil {
		t.Error("-pairs with unequal run counts did not fail")
	}
}

func mustRead(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
