package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// wallCap stops a run at the next request boundary once this much wall
// time has passed, whatever --seconds says, so the process ends within its
// time limit even when a request is far slower than expected.
const wallCap = 140 * time.Second

// report is what one run measured.
type report struct {
	attempted int
	failed    int
	retried   int      // requests served by the workload's fallback path
	failures  []string // one line per failed request
	wrong     []string // one line per failed output check

	setup     []float64 // seconds per set-up repeat
	latencies []float64 // seconds per successful request
	onClock   float64   // seconds spent inside timed requests
	accuracy  float64   // sum over successful requests
	rounds    int

	metrics []metric
}

// loop drives the closed loop: whole rounds until onClock reaches the
// target (at least one round), checking every output off the clock.
type loop struct {
	w     workload
	start time.Time
	rep   *report
}

func newLoop(w workload, seed int64, tr *tracer) (*loop, error) {
	l := &loop{w: w, start: time.Now(), rep: &report{}}
	tr.setReq(-1)
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(seed, tr); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		l.rep.setup = append(l.rep.setup, time.Since(t0).Seconds())
		tr = nil // spans of one set-up are enough
	}
	return l, nil
}

// expired reports whether the run must stop at the next request boundary.
func (l *loop) expired() bool { return time.Since(l.start) > wallCap }

// round serves the requests of round k, at most limit of them (limit < 0:
// all) and none once the round's on-clock time reaches budget (budget <= 0:
// no limit). It returns how many it served and their on-clock seconds.
// Counts read from the layers go into c.
func (l *loop) round(k, limit int, budget float64, tr *tracer, c counts) (int, float64, error) {
	n, err := l.w.startRound(k, tr)
	if err != nil {
		return 0, 0, fmt.Errorf("round %d: %w", k, err)
	}
	if limit >= 0 && limit < n {
		n = limit
	}
	var clock float64
	i := 0
	for ; i < n && !l.expired() && (budget <= 0 || clock < budget); i++ {
		tr.setReq(l.rep.attempted)
		root := tr.begin("request")
		t0 := time.Now()
		o := l.w.serve(i, tr, c)
		d := time.Since(t0).Seconds()
		tr.end(root)
		clock += d
		c.add("requests", 1)
		l.rep.attempted++
		if o.retried {
			l.rep.retried++
		}
		if o.failed != "" {
			l.rep.failed++
			l.rep.failures = append(l.rep.failures, fmt.Sprintf("round %d request %d: %s", k, i, o.failed))
		} else {
			l.rep.latencies = append(l.rep.latencies, d)
			l.rep.accuracy += o.accuracy
		}
		if err := l.w.check(i, o); err != nil {
			l.rep.wrong = append(l.rep.wrong, fmt.Sprintf("round %d request %d: %v", k, i, err))
		}
	}
	return i, clock, nil
}

// streamer marks a workload whose round is one event stream: a run may
// stop inside it once its time is up, where other workloads finish the
// round so every run sees the same size mix. The first window() rounds
// always run whole; they are the count window, the same in every run.
type streamer interface {
	window() int
}

// countRounds is how many leading rounds the count metrics cover: one, or
// a streamer's window.
func countRounds(w workload) int {
	if s, ok := w.(streamer); ok {
		return s.window()
	}
	return 1
}

// budget is the on-clock time round k may use: the rest of the run for a
// streamer past its count window, unlimited otherwise.
func budget(w workload, k int, left float64) float64 {
	if _, ok := w.(streamer); ok && k >= countRounds(w) {
		return math.Max(left, 1e-9)
	}
	return 0
}

// measure is the untraced end-to-end run.
func measure(w workload, seed int64, seconds float64) (*report, error) {
	l, err := newLoop(w, seed, nil)
	if err != nil {
		return nil, err
	}
	c := counts{}
	for k := 0; k < countRounds(w) || (l.rep.onClock < seconds && !l.expired()); k++ {
		_, d, err := l.round(k, -1, budget(w, k, seconds-l.rep.onClock), nil, c)
		if err != nil {
			return nil, err
		}
		l.rep.onClock += d
		l.rep.rounds++
	}
	l.rep.metrics = endToEnd(l.rep, w)
	return l.rep, nil
}

// traceReport is the traced run: the untraced and traced passes over the
// same rounds, the spans, and the counts of the leading rounds (the window
// count metrics are reported over, identical in every run at one seed).
type traceReport struct {
	*report
	tracer      *tracer
	untracedSec float64
	tracedSec   float64
	traced      int    // requests in the traced passes
	window      counts // counts of the count window's traced passes
	all         counts // counts of every traced pass
}

func measureTraced(w workload, seed int64, seconds float64) (*traceReport, error) {
	tr := newTracer()
	l, err := newLoop(w, seed, tr)
	if err != nil {
		return nil, err
	}
	r := &traceReport{report: l.rep, tracer: tr, window: counts{}, all: counts{}}
	for k := 0; k < countRounds(w) || (l.rep.onClock < seconds && !l.expired()); k++ {
		plain := counts{}
		served, du, err := l.round(k, -1, budget(w, k, (seconds-l.rep.onClock)/2), nil, plain)
		if err != nil {
			return nil, err
		}
		traced := counts{}
		served2, dt, err := l.round(k, served, 0, tr, traced)
		if err != nil {
			return nil, err
		}
		if d := plain.diff(traced); len(d) > 0 && served2 == served {
			l.rep.wrong = append(l.rep.wrong, fmt.Sprintf("round %d: work counts differ between two passes over the same inputs: %s", k, strings.Join(d, "; ")))
		}
		r.untracedSec += du
		r.tracedSec += dt
		r.traced += served2
		r.all.addAll(traced)
		if k < countRounds(w) {
			r.window.addAll(traced)
		}
		l.rep.onClock += du + dt
		l.rep.rounds++
	}
	return r, nil
}

// percentile returns the p-quantile (0..1) of sorted xs by linear
// interpolation between closest ranks.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// tail returns the highest percentile with at least ten samples beyond it:
// the eleventh-largest sample, and the percentile it sits at.
func tail(sorted []float64) (value, pct float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), 0, 0
	}
	if n <= 10 {
		return sorted[n-1], 100, 0
	}
	return sorted[n-11], 100 * float64(n-10) / float64(n), 10
}

// peakRSSMB reads the process's peak resident set size from
// /proc/self/status (VmHWM); elsewhere it falls back to the Go runtime's
// total memory obtained from the OS.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// endToEnd derives the end-to-end metrics of an untraced run.
func endToEnd(r *report, w workload) []metric {
	lat := append([]float64(nil), r.latencies...)
	sort.Float64s(lat)
	tv, tp, beyond := tail(lat)
	ok := len(lat)
	ms := []metric{
		{Name: "setup_s", Value: median(r.setup), Unit: "s", Note: fmt.Sprintf("median of %d set-ups", len(r.setup))},
		{Name: "latency_p50_s", Value: percentile(lat, 0.5), Unit: "s", Note: fmt.Sprintf("over %d requests", ok)},
		// The tail is an extreme order statistic of heavy-tailed solver
		// costs: it moves between seeds by more than any bound allows.
		{Name: "latency_tail_s", Value: tv, Unit: "s", Note: fmt.Sprintf("p%.2f, %d of %d samples beyond it", tp, beyond, ok), extra: true},
		{Name: "throughput_per_s", Value: float64(r.attempted) / r.onClock, Unit: "1/s", Note: fmt.Sprintf("%d requests in %.2f s on the clock, %d rounds; %s", r.attempted, r.onClock, r.rounds, w.describe())},
		{Name: "retried", Value: float64(r.retried), Unit: "count", Note: "requests re-solved by the fallback path (exact-small: cold node LPs; daemon-churn: cold engine after a flush with no incumbent)", extra: true},
		{Name: "failed_ratio", Value: float64(r.failed) / float64(r.attempted), Unit: "ratio", Note: fmt.Sprintf("%d of %d attempted", r.failed, r.attempted), extra: true},
	}
	if s, ok := w.(sloWorkload); ok {
		limit, why := s.slo()
		miss := r.failed
		for _, v := range lat {
			if v > limit {
				miss++
			}
		}
		ms = append(ms, metric{Name: "slo_miss_ratio", Value: float64(miss) / float64(r.attempted), Unit: "ratio",
			Note: fmt.Sprintf("%d of %d failed or slower than %g s (%s)", miss, r.attempted, limit, why), extra: true})
	}
	acc := math.NaN()
	if ok > 0 {
		acc = r.accuracy / float64(ok)
	}
	ms = append(ms,
		metric{Name: "avg_accuracy", Value: acc, Unit: "accuracy", Note: "mean per-task accuracy of the published schedules"},
		metric{Name: "peak_rss_mb", Value: peakRSSMB(), Unit: "MB", Note: "peak resident set of the process (VmHWM)"},
	)
	return ms
}

// sloWorkload is a workload with a fixed request latency limit.
type sloWorkload interface {
	slo() (limit float64, why string)
}
