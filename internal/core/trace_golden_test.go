package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/golden"
	"repro/internal/lang"
	"repro/internal/obs"
)

// goldenSrc is a small fixed workload: big enough to fault, prefetch,
// and write back through every traced layer, small enough that the
// golden trace stays reviewable.
const goldenSrc = `
program stream
param n = 1 << 13
array double a[n]
scalar double s
for i = 0 .. n {
    s = s + a[i]
}
`

// TestTraceGolden locks down the Chrome trace exporter end to end: a
// deterministic run must serialize to exactly the trace recorded in
// testdata/trace_stream.golden, one event a cell, as WriteJSON wrote it;
// re-record it (make repin) after an intentional change.
func TestTraceGolden(t *testing.T) {
	prog, err := lang.Parse(goldenSrc)
	if err != nil {
		t.Fatal(err)
	}
	trace := obs.NewTrace()
	data := int64(8 << 13) // n doubles
	cfg := DefaultConfig(MachineFor(data, 2))
	cfg.Seed = seedOnes
	cfg.Trace = trace
	cfg.TraceName = "stream/P"
	if _, err := Run(prog, cfg); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := trace.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	var events []json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	if err := json.Unmarshal(doc["traceEvents"], &events); err != nil {
		t.Fatalf("exported trace's traceEvents is not a list: %v", err)
	}
	rec := golden.Open(t, "testdata/trace_stream.golden")
	defer rec.Close()
	for k, v := range doc {
		if k != "traceEvents" {
			rec.Check(t, "top/"+k, string(v))
		}
	}
	for i, e := range events {
		rec.Check(t, fmt.Sprintf("event/%04d", i), string(e))
	}

	// Sanity beyond the record: the trace itself must have the track
	// structure the exporter promises.
	tracks := map[string]bool{}
	classes := map[string]bool{}
	for _, e := range trace.Events() {
		switch e.Phase {
		case 'M':
			if e.Name == "thread_name" {
				tracks[e.Label] = true
			}
		case 'i':
			if e.Cat == "fault-class" {
				classes[e.Name] = true
			}
		}
	}
	for _, want := range []string{"cpu", "faults", "disk 0"} {
		if !tracks[want] {
			t.Errorf("trace lacks a %q track (have %v)", want, tracks)
		}
	}
	if len(classes) == 0 {
		t.Error("trace has no fault-classification instants")
	}
}
