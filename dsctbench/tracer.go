package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// span is one timed call into a layer's public function, recorded by the
// benchmark around the call site. Spans of one request share req; setup
// spans use req -1.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a request's root span
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; a nil *tracer records nothing, so the
// untraced run pays one nil check per call site.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span ids
	req   int

	sums  map[string]float64 // measurements summed over the run
	peaks map[string]float64 // measurements kept at their maximum
	marks []mark             // every peak sample, written with the spans
}

// mark is one sampled measurement, e.g. the heap size after a flush.
type mark struct {
	Mark  string  `json:"mark"`
	Req   int     `json:"req"`
	At    int64   `json:"at_ns"`
	Value float64 `json:"value"`
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), sums: map[string]float64{}, peaks: map[string]float64{}}
}

// sum adds v to the run total of name.
func (t *tracer) sum(name string, v float64) {
	if t != nil {
		t.sums[name] += v
	}
}

// sample records v as a mark and keeps the peak of name.
func (t *tracer) sample(name string, v float64) {
	if t == nil {
		return
	}
	t.marks = append(t.marks, mark{Mark: name, Req: t.req, At: time.Since(t.t0).Nanoseconds(), Value: v})
	if v > t.peaks[name] {
		t.peaks[name] = v
	}
}

// allocated returns the bytes allocated so far by the process; a nil
// tracer returns 0 without stopping the world.
func (t *tracer) allocated() float64 {
	if t == nil {
		return 0
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc)
}

// begin opens a span under the innermost open span and returns its id.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: t.req, Start: time.Since(t.t0).Nanoseconds()})
	t.open = append(t.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic(fmt.Sprintf("tracer: span %d closed out of order", id))
	}
	t.spans[id].End = time.Since(t.t0).Nanoseconds()
	t.open = t.open[:len(t.open)-1]
}

// do runs f inside a span.
func (t *tracer) do(name string, f func()) {
	id := t.begin(name)
	f()
	t.end(id)
}

// setReq tags the spans opened from now on with request id req.
func (t *tracer) setReq(req int) {
	if t != nil {
		t.req = req
	}
}

// selfTimes sums, per span name, each span's duration minus the part
// covered by its direct children, in seconds, and counts the spans.
func (t *tracer) selfTimes() (self map[string]float64, count map[string]int) {
	self = map[string]float64{}
	count = map[string]int{}
	if t == nil {
		return self, count
	}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.spans {
		self[s.Name] += float64(s.End-s.Start-child[i]) / 1e9
		count[s.Name]++
	}
	return self, count
}

// write stores the spans, then the marks, as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	for _, m := range t.marks {
		if err := enc.Encode(m); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
