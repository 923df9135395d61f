package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// Reads and registrations through a nil registry are safe: a counter
// view reads 0, and registering a source, counters and gauges alike,
// does nothing.
func TestCounterAndGaugeNilSafe(t *testing.T) {
	var r *Registry
	l := newTestSource("layer.")
	l.hits, l.util = 3, 0.5
	r.Register(&l.src)
	if r.Counter("layer.hits").Value() != 0 || (Counter{}).Value() != 0 {
		t.Fatal("a nil registry reported a value")
	}
	NewRegistry().Merge("x/", r) // merging a nil registry adds nothing
}

// Two views of one name read the same count, which adds up over every
// source serving the name.
func TestRegistryHandlesAreStable(t *testing.T) {
	r := NewRegistry()
	a, b := r.Counter("x.hits"), r.Counter("x.hits")
	if a != b {
		t.Fatal("same name resolved to different views")
	}
	l1, l2 := newTestSource("x."), newTestSource("x.")
	r.Register(&l1.src)
	r.Register(&l2.src)
	l1.hits, l2.hits = 3, 4
	if a.Value() != 7 || b.Value() != 7 {
		t.Fatalf("views read %d and %d, want both sources' 7", a.Value(), b.Value())
	}
}

// atomicSource is a source over counters bumped from many goroutines,
// the way the experiment runner's workers bump runner.*.
type atomicSource struct {
	n   atomic.Int64
	src Source
}

func newAtomicSource(prefix, name string) *atomicSource {
	a := &atomicSource{}
	a.src = Source{Prefix: prefix, Counters: []string{name}, Fill: func(c []int64, _ []float64) { c[0] = a.n.Load() }}
	return a
}

// TestRegistryConcurrent: eight goroutines bump atomics behind sources —
// one of their own, registered while the others run, and one they
// share — while other goroutines Snapshot the registry, Merge a finished
// run into it and Merge it into a third registry. Run under -race.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	shared := newAtomicSource("", "shared")
	r.Register(&shared.src)
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			own := newAtomicSource(fmt.Sprintf("worker.%d.", w), "n")
			r.Register(&own.src)
			for i := 0; i < perWorker; i++ {
				own.n.Add(1)
				shared.n.Add(1)
			}
		}(w)
	}
	other := NewRegistry()
	run := newAtomicSource("vm.", "faults.major")
	run.n.Store(11)
	other.Register(&run.src)
	readers := make(chan struct{})
	go func() {
		defer close(readers)
		sink := NewRegistry()
		for i := 0; i < 50; i++ {
			r.Merge("run/", other)
			_ = r.Snapshot()
			sink.Merge("all/", r)
		}
	}()
	wg.Wait()
	<-readers

	s := r.Snapshot()
	if got := s.Counters["shared"]; got != workers*perWorker {
		t.Fatalf("shared counter = %d, want %d", got, workers*perWorker)
	}
	for w := 0; w < workers; w++ {
		if got := s.Counters[fmt.Sprintf("worker.%d.n", w)]; got != perWorker {
			t.Fatalf("worker %d counter = %d, want %d", w, got, perWorker)
		}
	}
	if got := s.Counters["run/vm.faults.major"]; got != 50*11 {
		t.Fatalf("merged counter = %d, want %d", got, 50*11)
	}
}

// A name no source serves reads 0, and reading it creates nothing:
// Snapshot and WriteJSON list only what sources serve.
func TestUnservedNameReadsZero(t *testing.T) {
	r := NewRegistry()
	l := newTestSource("layer.")
	r.Register(&l.src)
	l.hits = 2
	for _, name := range []string{"layer.nope", "nope", "layer.hits.x"} {
		if v := r.Counter(name).Value(); v != 0 {
			t.Fatalf("%s read %d, want 0", name, v)
		}
	}
	s := r.Snapshot()
	if len(s.Counters) != 2 || len(s.Gauges) != 1 || s.Counters["layer.hits"] != 2 {
		t.Fatalf("snapshot %+v, want exactly the source's three names", s)
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var flat map[string]any
	if err := json.Unmarshal(buf.Bytes(), &flat); err != nil {
		t.Fatal(err)
	}
	if _, ok := flat["layer.nope"]; ok || len(flat) != 3 {
		t.Fatalf("metrics JSON %v grew a name nothing serves", flat)
	}
}

func TestMergePrefixes(t *testing.T) {
	src := NewRegistry()
	l := newTestSource("vm.")
	l.hits, l.util = 7, 0.25
	src.Register(&l.src)
	dst := NewRegistry()
	dst.Merge("BUK/P/", src)
	s := dst.Snapshot()
	if s.Counters["BUK/P/vm.hits"] != 7 {
		t.Fatalf("merge lost counter: %+v", s.Counters)
	}
	if s.Gauges["BUK/P/vm.util"] != 0.25 {
		t.Fatalf("merge lost gauge: %+v", s.Gauges)
	}
	dst.Merge("x/", nil) // nil source is a no-op
}

// testSource is a layer's source over two plain fields.
type testSource struct {
	hits, misses int64
	util         float64
	src          Source
}

func newTestSource(prefix string) *testSource {
	l := &testSource{}
	l.src = Source{Prefix: prefix, Counters: []string{"hits", "misses"}, Gauges: []string{"util"},
		Fill: func(c []int64, g []float64) { c[0], c[1], g[0] = l.hits, l.misses, l.util }}
	return l
}

// TestSourceReadOnDemand: a registered source is read when the registry
// is — by Snapshot, WriteJSON and a read view's Value — and never
// written, so every read sees the layer's fields as they stand.
func TestSourceReadOnDemand(t *testing.T) {
	r := NewRegistry()
	l := newTestSource("layer.")
	r.Register(&l.src)
	hits := r.Counter("layer.hits")
	l.hits, l.misses, l.util = 3, 1, 0.5
	if s := r.Snapshot(); s.Counters["layer.hits"] != 3 || s.Counters["layer.misses"] != 1 || s.Gauges["layer.util"] != 0.5 {
		t.Fatalf("snapshot %+v does not read the source", s)
	}
	l.hits = 9
	if hits.Value() != 9 {
		t.Fatalf("read view = %d, want the source's current 9", hits.Value())
	}
	if r.Counter("layer.hit").Value() != 0 || r.Counter("other.hits").Value() != 0 || r.Counter("layer.util").Value() != 0 {
		t.Fatal("a name the source does not serve as a counter resolved to it")
	}
}

// TestMergeFreezesSources: Merge reads a source once, so the merged
// registry keeps the values as of the merge while the source's own
// registry reads on; Freeze does the same in place.
func TestMergeFreezesSources(t *testing.T) {
	src := NewRegistry()
	l := newTestSource("")
	src.Register(&l.src)
	l.hits, l.util = 4, 0.25
	dst := NewRegistry()
	dst.Merge("run/", src)
	dst.Merge("again/", src)
	l.hits = 5
	s := dst.Snapshot()
	if s.Counters["run/hits"] != 4 || s.Counters["again/hits"] != 4 || s.Gauges["run/util"] != 0.25 {
		t.Fatalf("merged snapshot %+v, want the values as of the merge", s)
	}
	if src.Counter("hits").Value() != 5 {
		t.Fatal("merging froze the source in its own registry")
	}
	src.Freeze(&l.src)
	l.hits = 6
	if src.Counter("hits").Value() != 5 {
		t.Fatal("a frozen source read its layer again")
	}
}

func TestRegistryWriteJSON(t *testing.T) {
	r := NewRegistry()
	l := newTestSource("vm.")
	l.hits, l.util = 3, 0.5
	r.Register(&l.src)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var flat map[string]any
	if err := json.Unmarshal(buf.Bytes(), &flat); err != nil {
		t.Fatalf("metrics JSON does not parse: %v\n%s", err, buf.String())
	}
	if flat["vm.hits"] != float64(3) || flat["vm.util"] != 0.5 {
		t.Fatalf("unexpected snapshot: %v", flat)
	}
}

func TestRunObsNilSafety(t *testing.T) {
	var o *RunObs
	if o.Registry() == nil {
		t.Fatal("nil RunObs must still yield a registry")
	}
	if o.Thread("cpu") != nil {
		t.Fatal("nil RunObs must yield a nil track")
	}
	o = &RunObs{} // no trace proc
	if o.Thread("cpu") != nil {
		t.Fatal("RunObs without a proc must yield a nil track")
	}
	o.Thread("cpu").Span("user", "user", 0, 10) // must not panic
}

// Substrate micro-benchmarks: the per-event cost of tracing, on
// (enabled) and off (a nil track).

func BenchmarkTrackSpan(b *testing.B) {
	tr := NewTrace().NewProcess("bench").Thread("cpu")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Span("user", "user", 0, 10)
	}
}

func BenchmarkTrackSpanDisabled(b *testing.B) {
	var tr *Track
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Span("user", "user", 0, 10)
	}
}
