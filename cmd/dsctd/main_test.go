package main

import (
	"bufio"
	"encoding/json"
	"regexp"
	"strings"
	"testing"
	"time"
)

// decodeSummaries parses the stdout JSON lines.
func decodeSummaries(t *testing.T, out string) []summary {
	t.Helper()
	var sums []summary
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var s summary
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("bad output line %q: %v", sc.Text(), err)
		}
		sums = append(sums, s)
	}
	return sums
}

func TestStdinMode(t *testing.T) {
	input := strings.Join([]string{
		`{"kind":"machine-join","machine":"m0","speed":9500,"power":180}`,
		`{"kind":"budget-change","budget":4000}`,
		`{"kind":"task-arrive","task":"t0","deadline":1.5,"breaks":[0,40,90],"values":[0.001,0.61,0.82]}`,
		`{"kind":"task-arrive","task":"t1","deadline":2.5,"breaks":[0,30,80],"values":[0.001,0.55,0.80]}`,
		``, // blank lines are skipped
		`{"kind":"task-depart","task":"t0"}`,
	}, "\n")
	var out, errw strings.Builder
	if err := run([]string{"-v"}, strings.NewReader(input), &out, &errw); err != nil {
		t.Fatal(err)
	}
	sums := decodeSummaries(t, out.String())
	if len(sums) != 5 {
		t.Fatalf("got %d summaries, want 5 (one per event)", len(sums))
	}
	final := sums[len(sums)-1]
	if final.Status != "optimal" || final.Tasks != 1 || final.Machines != 1 {
		t.Errorf("final summary %+v, want optimal with 1 task on 1 machine", final)
	}
	if final.TotalAccuracy <= 0 || final.TotalAccuracy > 0.80+1e-9 {
		t.Errorf("final accuracy %g outside (0, 0.80]", final.TotalAccuracy)
	}
	if _, ok := final.Times["t1"]; !ok {
		t.Errorf("-v output missing time map for t1: %+v", final.Times)
	}
	for _, want := range []string{"5 flushes", "latency p50 ", ", p90 ", ", p99 ", ", max ", "events/sec"} {
		if !strings.Contains(errw.String(), want) {
			t.Errorf("stats footer %q lacks %q", errw.String(), want)
		}
	}
	checkFlushesTimeSolves(t, errw.String())
}

var footerTimes = regexp.MustCompile(`flush time (\S+) total, solve time (\S+) total`)

// checkFlushesTimeSolves checks a single-engine footer: every solve runs
// inside one timed flush, so the flushes' summed latency is at least the
// engine's total solve time, and some solve ran.
func checkFlushesTimeSolves(t *testing.T, footer string) {
	t.Helper()
	m := footerTimes.FindStringSubmatch(footer)
	if m == nil {
		t.Fatalf("stats footer %q lacks the flush and solve totals", footer)
	}
	flush, err := time.ParseDuration(m[1])
	if err != nil {
		t.Fatal(err)
	}
	solve, err := time.ParseDuration(m[2])
	if err != nil {
		t.Fatal(err)
	}
	if solve <= 0 || flush < solve {
		t.Errorf("flush time %v total, solve time %v total: want flushes to cover every solve", flush, solve)
	}
}

func TestBatchedFlushesTimeSolves(t *testing.T) {
	var out, errw strings.Builder
	if err := run([]string{"-replay", "30", "-tasks", "5", "-machines", "2", "-seed", "11", "-batch", "4"},
		strings.NewReader(""), &out, &errw); err != nil {
		t.Fatal(err)
	}
	if sums := decodeSummaries(t, out.String()); len(sums) != 8 {
		t.Fatalf("got %d summaries, want 8", len(sums))
	}
	if !strings.Contains(errw.String(), "8 flushes") {
		t.Errorf("stats footer %q does not account 8 flushes", errw.String())
	}
	checkFlushesTimeSolves(t, errw.String())
}

func TestLatencyHistBuckets(t *testing.T) {
	// Bucket i holds exactly the durations in (histUpper(i-1), histUpper(i)].
	prev := time.Duration(-1)
	for i := 0; i < histBuckets; i++ {
		hi := histUpper(i)
		if hi <= prev {
			t.Fatalf("bucket %d: upper %d not above bucket %d's %d", i, hi, i-1, prev)
		}
		if got := histBucket(prev + 1); got != i {
			t.Fatalf("duration %d in bucket %d, want %d", prev+1, got, i)
		}
		if got := histBucket(hi); got != i {
			t.Fatalf("duration %d in bucket %d, want %d", hi, got, i)
		}
		if lo := prev + 1; lo >= 32 && hi-lo >= lo/16 {
			t.Fatalf("bucket %d spans [%d, %d], wider than 1/16 of its lower edge", i, lo, hi)
		}
		prev = hi
	}
	if prev != time.Duration(1<<63-1) {
		t.Errorf("last bucket ends at %d, want the largest duration", prev)
	}
}

func TestLatencyHistQuantiles(t *testing.T) {
	var h latencyHist
	if h.quantile(50) != 0 {
		t.Errorf("empty p50 %v, want 0", h.quantile(50))
	}
	// 1..1000 µs: nearest-rank p50 is 500 µs, p90 900 µs, p99 990 µs.
	for i := 1000; i >= 1; i-- {
		h.record(time.Duration(i) * time.Microsecond)
	}
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{50, 500 * time.Microsecond}, {90, 900 * time.Microsecond}, {99, 990 * time.Microsecond}, {100, time.Millisecond}} {
		got := h.quantile(c.q)
		if got < c.want || got > c.want+c.want/16 {
			t.Errorf("p%g = %v, want within [%v, +1/16]", c.q, got, c.want)
		}
	}
	if h.quantile(100) != time.Millisecond || h.max != time.Millisecond {
		t.Errorf("max %v, p100 %v, want exactly 1ms", h.max, h.quantile(100))
	}
	if h.n != 1000 || h.total != 500500*time.Microsecond {
		t.Errorf("n %d, total %v, want 1000 and 500.5ms", h.n, h.total)
	}
	h.record(-time.Second) // a clock step back counts as zero
	if h.n != 1001 || h.total != 500500*time.Microsecond {
		t.Errorf("after a negative record: n %d, total %v", h.n, h.total)
	}
}

func TestStdinRejectsBadLine(t *testing.T) {
	var out, errw strings.Builder
	err := run(nil, strings.NewReader("{not json}\n"), &out, &errw)
	if err == nil || !strings.Contains(err.Error(), "line 1") {
		t.Fatalf("err = %v, want line-1 decode error", err)
	}
}

func TestReplayMode(t *testing.T) {
	var out, errw strings.Builder
	if err := run([]string{"-replay", "30", "-tasks", "5", "-machines", "2", "-seed", "11"},
		strings.NewReader(""), &out, &errw); err != nil {
		t.Fatal(err)
	}
	sums := decodeSummaries(t, out.String())
	if len(sums) != 30 {
		t.Fatalf("got %d summaries, want 30", len(sums))
	}
	for _, s := range sums[5:] { // past the warm-up joins
		if s.Status != "optimal" {
			t.Fatalf("event %d: status %q", s.Event, s.Status)
		}
	}
	// Deterministic: a second replay produces identical output.
	var out2 strings.Builder
	if err := run([]string{"-replay", "30", "-tasks", "5", "-machines", "2", "-seed", "11"},
		strings.NewReader(""), &out2, &errw); err != nil {
		t.Fatal(err)
	}
	if out.String() != out2.String() {
		t.Error("replay output not deterministic")
	}
}

func TestReplayBatched(t *testing.T) {
	var out, errw strings.Builder
	if err := run([]string{"-replay", "30", "-tasks", "6", "-machines", "2", "-seed", "13", "-batch", "4"},
		strings.NewReader(""), &out, &errw); err != nil {
		t.Fatal(err)
	}
	sums := decodeSummaries(t, out.String())
	// 30 events in windows of 4: 7 full flushes plus the partial tail.
	if len(sums) != 8 {
		t.Fatalf("got %d summaries, want 8", len(sums))
	}
	if got := sums[len(sums)-1].Event; got != 30 {
		t.Errorf("last summary at event %d, want 30", got)
	}
	for _, want := range []string{"30 events", "8 flushes"} {
		if !strings.Contains(errw.String(), want) {
			t.Errorf("stats footer %q does not account %s", errw.String(), want)
		}
	}
}

func TestFlagErrors(t *testing.T) {
	for name, args := range map[string][]string{
		"positional args": {"extra"},
		"bad batch":       {"-batch", "0"},
		"removed shards":  {"-shards", "2"},
		"removed workers": {"-workers", "2"},
	} {
		var out, errw strings.Builder
		if err := run(args, strings.NewReader(""), &out, &errw); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
