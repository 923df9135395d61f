package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
)

func TestCounterAndGaugeNilSafe(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter reported a value")
	}
	var g *Gauge
	g.Set(1.5)
	if g.Value() != 0 {
		t.Fatal("nil gauge reported a value")
	}
}

func TestRegistryHandlesAreStable(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x")
	b := r.Counter("x")
	if a != b {
		t.Fatal("same name resolved to different counters")
	}
	a.Add(3)
	if b.Value() != 3 {
		t.Fatal("handle does not see shared count")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Fatal("same name resolved to different gauges")
	}
}

// TestRegistryConcurrent hammers one registry from many goroutines — the
// bench Runner's workers write runner.* counters into a shared registry —
// mixing resolution, increments, snapshots, and merges. Run under -race.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			own := r.Counter(fmt.Sprintf("worker.%d", w))
			shared := r.Counter("shared")
			for i := 0; i < perWorker; i++ {
				own.Inc()
				shared.Inc()
				r.Gauge("load").Set(float64(i))
				if i%512 == 0 {
					_ = r.Snapshot()
				}
			}
		}(w)
	}
	// A merging reader runs concurrently with the writers.
	other := NewRegistry()
	other.Counter("vm.faults.major").Add(11)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			r.Merge("run/", other)
		}
	}()
	wg.Wait()
	<-done

	s := r.Snapshot()
	if got := s.Counters["shared"]; got != workers*perWorker {
		t.Fatalf("shared counter = %d, want %d", got, workers*perWorker)
	}
	for w := 0; w < workers; w++ {
		if got := s.Counters[fmt.Sprintf("worker.%d", w)]; got != perWorker {
			t.Fatalf("worker %d counter = %d, want %d", w, got, perWorker)
		}
	}
	if got := s.Counters["run/vm.faults.major"]; got != 50*11 {
		t.Fatalf("merged counter = %d, want %d", got, 50*11)
	}
}

func TestMergePrefixes(t *testing.T) {
	src := NewRegistry()
	src.Counter("vm.faults.major").Add(7)
	src.Gauge("run.avg_free_frac").Set(0.25)
	dst := NewRegistry()
	dst.Merge("BUK/P/", src)
	s := dst.Snapshot()
	if s.Counters["BUK/P/vm.faults.major"] != 7 {
		t.Fatalf("merge lost counter: %+v", s.Counters)
	}
	if s.Gauges["BUK/P/run.avg_free_frac"] != 0.25 {
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
	if hits.Value() != 9 || r.Gauge("layer.util").Value() != 0.5 {
		t.Fatalf("read view = %d, want the source's current 9", hits.Value())
	}
	if r.Counter("layer.hit").Value() != 0 || r.Counter("other.hits").Value() != 0 {
		t.Fatal("a name the source does not serve resolved to it")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("adding to a read view did not panic")
		}
	}()
	hits.Inc()
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
	r.Counter("vm.faults.major").Add(3)
	r.Gauge("disk.util_mean").Set(0.5)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var flat map[string]any
	if err := json.Unmarshal(buf.Bytes(), &flat); err != nil {
		t.Fatalf("metrics JSON does not parse: %v\n%s", err, buf.String())
	}
	if flat["vm.faults.major"] != float64(3) || flat["disk.util_mean"] != 0.5 {
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

// Substrate micro-benchmarks: the per-event cost of the observability
// layer, on (enabled) and off (nil handles).

func BenchmarkCounterAdd(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkCounterAddDisabled(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

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
