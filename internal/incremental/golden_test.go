package incremental

// Golden pins for the engine: every flush of three replayed traces,
// recorded by its status, the bits of its total accuracy, an FNV digest of
// the published times and its branch-and-bound node count. The traces are
// the one TestStreamVsCold replays (seed 41), an 80-event trace (seed 43,
// named for the Workers determinism test that replayed it once) and a
// slack trace of 24 tasks on 3 machines with DeadlineScale 20
// and BudgetScale 50, the regime of the benchmark's daemon-churn workload,
// where most roots are integral. Every field must match exactly: a change
// to the search or the model rows that alters a tree or a vertex the
// schedule is rounded from surfaces here as a moved pin.
//
// Regenerate after an intentional change with
//
//	go test ./internal/incremental -run TestGoldenFlushes -update
//
// and name the moved flushes in the change description.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.json from the current engine")

const goldenPath = "testdata/golden.json"

// flushPin is one flush's golden record.
type flushPin struct {
	Status string `json:"status"`
	Acc    uint64 `json:"acc"`   // math.Float64bits(Solution.TotalAccuracy)
	Times  uint64 `json:"times"` // timesDigest(Solution.Times)
	Nodes  int    `json:"nodes"`
}

// tracePin is one replayed trace's golden record, one pin per event.
type tracePin struct {
	Name    string     `json:"name"`
	Flushes []flushPin `json:"flushes"`
}

// goldenTrace is one pinned input.
type goldenTrace struct {
	name  string
	trace []Event
}

// goldenTraces lists the pinned traces in file order.
func goldenTraces(t *testing.T) []goldenTrace {
	slack := DefaultTraceConfig(61, 24+3+1+72, 24, 3)
	slack.DeadlineScale = 20
	slack.BudgetScale = 50
	slackTrace, err := GenTrace(slack)
	if err != nil {
		t.Fatal(err)
	}
	return []goldenTrace{
		{"stream-vs-cold/seed=41", genTestTrace(t, 41, 220)},
		{"workers/seed=43", genTestTrace(t, 43, 80)},
		{"slack/seed=61", slackTrace},
	}
}

// timesDigest hashes the published times in task-id, then machine-id
// order: ids and the bits of every time.
func timesDigest(times map[string]map[string]float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	ids := make([]string, 0, len(times))
	for id := range times {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		_, _ = h.Write([]byte(id)) // a hash.Hash never returns an error
		row := times[id]
		mids := make([]string, 0, len(row))
		for mid := range row {
			mids = append(mids, mid)
		}
		sort.Strings(mids)
		for _, mid := range mids {
			_, _ = h.Write([]byte(mid))
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(row[mid]))
			_, _ = h.Write(b[:])
		}
	}
	return h.Sum64()
}

// replayPins applies trace event by event on a default engine and
// records every flush.
func replayPins(t *testing.T, trace []Event) []flushPin {
	t.Helper()
	e := New(Options{})
	pins := make([]flushPin, len(trace))
	for i, ev := range trace {
		sol, err := e.Apply(ev)
		if err != nil {
			t.Fatalf("event %d (%s): %v", i, ev.Kind, err)
		}
		pins[i] = flushPin{
			Status: sol.Status.String(),
			Acc:    math.Float64bits(sol.TotalAccuracy),
			Times:  timesDigest(sol.Times),
			Nodes:  sol.Nodes,
		}
	}
	return pins
}

func TestGoldenFlushes(t *testing.T) {
	var got []tracePin
	for _, g := range goldenTraces(t) {
		got = append(got, tracePin{Name: g.name, Flushes: replayPins(t, g.trace)})
	}
	if *updateGolden {
		var buf bytes.Buffer
		buf.WriteString("[\n")
		for i, tp := range got {
			name, err := json.Marshal(tp.Name)
			if err != nil {
				t.Fatal(err)
			}
			buf.WriteString(`{"name":`)
			buf.Write(name)
			buf.WriteString(`,"flushes":[` + "\n")
			for k, p := range tp.Flushes {
				raw, err := json.Marshal(p)
				if err != nil {
					t.Fatal(err)
				}
				buf.Write(raw)
				if k < len(tp.Flushes)-1 {
					buf.WriteByte(',')
				}
				buf.WriteByte('\n')
			}
			buf.WriteString("]}")
			if i < len(got)-1 {
				buf.WriteByte(',')
			}
			buf.WriteByte('\n')
		}
		buf.WriteString("]\n")
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []tracePin
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("%s pins %d traces, want %d", goldenPath, len(want), len(got))
	}
	for i, w := range want {
		g := got[i]
		if w.Name != g.Name || len(w.Flushes) != len(g.Flushes) {
			t.Fatalf("trace %d: pinned %q with %d flushes, replayed %q with %d", i, w.Name, len(w.Flushes), g.Name, len(g.Flushes))
		}
		for k, wp := range w.Flushes {
			if gp := g.Flushes[k]; gp != wp {
				t.Errorf("%s event %d: got %s acc %#x times %#x, %d nodes; pinned %s acc %#x times %#x, %d nodes",
					g.Name, k, gp.Status, gp.Acc, gp.Times, gp.Nodes, wp.Status, wp.Acc, wp.Times, wp.Nodes)
			}
		}
	}
}
