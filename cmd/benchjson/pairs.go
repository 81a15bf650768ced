package main

// The -pairs mode summarises alternating benchmark runs of two builds, as
// scripts/benchpairs.sh takes them: two files of dsctbench result lines
// (one JSON object per run, the k-th line of each file from the k-th
// pair), and BENCHMARK.json for each metric's better direction. Per
// metric it prints each side's median and quartiles, the ratio of the
// medians, and how many pairs the change won; a metric is "resolved" when
// the change won at least 9 pairs in 10 and the medians differ by more
// than the base's interquartile range.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"` // "lower" or "higher"
}

// benchmarkSpec is the part of BENCHMARK.json the summary reads.
type benchmarkSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// runLine is one dsctbench run's closing JSON line.
type runLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// loadRuns reads one JSON run line per non-blank line of path.
func loadRuns(path string) ([]runLine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() //lint:ignore errchecklite read-only file; a close error loses nothing
	var runs []runLine
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var r runLine
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %v", path, n, err)
		}
		runs = append(runs, r)
	}
	return runs, sc.Err()
}

// quartiles returns the 25th, 50th and 75th percentiles of v, linearly
// interpolated between order statistics.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		h := p * float64(len(s)-1)
		lo := int(math.Floor(h))
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}

// summarizePairs prints the pair summary of the runs in basePath and
// changePath, taking each metric's direction from the BENCHMARK.json at
// specPath.
func summarizePairs(specPath, basePath, changePath string, stdout io.Writer) error {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %v", specPath, err)
	}
	base, err := loadRuns(basePath)
	if err != nil {
		return err
	}
	change, err := loadRuns(changePath)
	if err != nil {
		return err
	}
	if len(base) == 0 || len(base) != len(change) {
		return fmt.Errorf("-pairs needs the same positive number of runs on each side, got %d and %d", len(base), len(change))
	}
	n := len(base)
	var failedB, failedC []string
	for k := range base {
		failedB = append(failedB, fmt.Sprintf("%d/%d", base[k].Failed, base[k].Attempted))
		failedC = append(failedC, fmt.Sprintf("%d/%d", change[k].Failed, change[k].Attempted))
	}
	if _, err := fmt.Fprintf(stdout, "%d pairs; failed/attempted per run: base %s, change %s\n",
		n, strings.Join(failedB, " "), strings.Join(failedC, " ")); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(stdout, "%-30s %-6s %12s %27s %12s %27s %8s %6s\n",
		"metric", "better", "base median", "base quartiles", "change median", "change quartiles", "ratio", "wins"); err != nil {
		return err
	}
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		vb, vc := make([]float64, 0, n), make([]float64, 0, n)
		wins := 0
		for k := range base {
			b, okB := base[k].Metrics[m.Name]
			c, okC := change[k].Metrics[m.Name]
			if !okB || !okC {
				continue
			}
			vb, vc = append(vb, b.Value), append(vc, c.Value)
			if (m.Better == "lower" && c.Value < b.Value) || (m.Better == "higher" && c.Value > b.Value) {
				wins++
			}
		}
		if len(vb) < n {
			continue // not reported by every run of this workload
		}
		b1, bm, b3 := quartiles(vb)
		c1, cm, c3 := quartiles(vc)
		ratio := math.NaN()
		if bm != 0 {
			ratio = cm / bm
		}
		verdict := ""
		if 10*wins >= 9*n && math.Abs(cm-bm) > b3-b1 {
			verdict = "  resolved"
		}
		if _, err := fmt.Fprintf(stdout, "%-30s %-6s %12.6g [%12.6g, %12.6g] %12.6g [%12.6g, %12.6g] %8.4f %3d/%-2d%s\n",
			m.Name, m.Better, bm, b1, b3, cm, c1, c3, ratio, wins, n, verdict); err != nil {
			return err
		}
	}
	return nil
}
