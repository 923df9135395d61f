package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer of the program, recorded from the
// benchmark's side of the call.
type span struct {
	name   string
	run    int // index into tracer.runs: the run the call belonged to
	parent int // index of the enclosing span, -1 at top level
	start  time.Duration
	end    time.Duration
}

// tracer keeps spans in memory; they are written out once, when the
// benchmark ends. A nil *tracer records nothing, so one code path serves
// the timed passes (tracing off) and the traced pass.
type tracer struct {
	t0    time.Time
	spans []span
	runs  []string // run names; a span's run indexes this
	open  []int    // stack of open span indexes
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newRun names the run the following spans belong to and returns its id.
func (t *tracer) newRun(name string) int {
	if t == nil {
		return 0
	}
	t.runs = append(t.runs, name)
	return len(t.runs) - 1
}

// do times f as a span named name inside run; spans opened within f
// become its children.
func (t *tracer) do(name string, run int, f func()) {
	if t == nil {
		f()
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{name: name, run: run, parent: parent, start: time.Since(t.t0)})
	t.open = append(t.open, id)
	f()
	t.open = t.open[:len(t.open)-1]
	t.spans[id].end = time.Since(t.t0)
}

// total returns, per span name, the summed duration in microseconds.
func (t *tracer) total() map[string]float64 {
	out := map[string]float64{}
	for _, s := range t.spans {
		out[s.name] += float64(s.end-s.start) / 1e3
	}
	return out
}

// topLevel returns the summed duration of spans that have no parent.
func (t *tracer) topLevel() time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.parent < 0 {
			d += s.end - s.start
		}
	}
	return d
}

// stageRow is one cell of the per-run stage table: how long one run
// spent in one stage.
type stageRow struct {
	Run   string  `json:"run"`
	Stage string  `json:"stage"`
	US    float64 `json:"us"`
}

// stages folds the spans into run × stage rows, in run order.
func (t *tracer) stages() []stageRow {
	type key struct {
		run   int
		stage string
	}
	sum := map[key]float64{}
	var order []key
	for _, s := range t.spans {
		k := key{s.run, s.name}
		if _, seen := sum[k]; !seen {
			order = append(order, k)
		}
		sum[k] += float64(s.end-s.start) / 1e3
	}
	sort.SliceStable(order, func(i, j int) bool { return order[i].run < order[j].run })
	rows := make([]stageRow, len(order))
	for i, k := range order {
		rows[i] = stageRow{Run: t.runs[k.run], Stage: k.stage, US: sum[k]}
	}
	return rows
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format; chrome://tracing and Perfetto load the enclosing object.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans as Chrome trace-event JSON: one thread
// per run, named after it, with each span's parent in its args.
func (t *tracer) writeChrome(path string) error {
	events := make([]chromeEvent, 0, len(t.spans)+len(t.runs))
	for i, name := range t.runs {
		events = append(events, chromeEvent{Name: "thread_name", Ph: "M", PID: 1, TID: i,
			Args: map[string]any{"name": name}})
	}
	for i, s := range t.spans {
		args := map[string]any{"span": i, "run": t.runs[s.run]}
		if s.parent >= 0 {
			args["parent"] = s.parent
		}
		events = append(events, chromeEvent{Name: s.name, Cat: "host", Ph: "X",
			TS: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3, PID: 1, TID: s.run, Args: args})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
