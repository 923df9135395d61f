// Package obs is the unified observability layer shared by every part of
// the simulated system: a typed metrics registry and a structured event
// tracer with a Chrome trace-event exporter.
//
// Observability is free when it is off and cheap when it is on. Trace
// emission through a nil Track costs one nil check per event. The
// registry only reads: each layer counts in plain fields of its own
// (vm.Stats, disk.Stats, rt.Stats, fault.Counts, a server's admissions)
// and, at construction, registers one Source, which fills a fixed table
// of names from those fields. Snapshot, WriteJSON, Merge and a Counter's
// Value call the sources when they run, and prefixed names are built
// only then. A source over a run's fields is read by the goroutine that
// owns the run, or after the run ends; one whose fields several
// goroutines bump (the experiment runner's) keeps them atomic. Merge
// freezes what it reads, so any goroutine may read a registry that only
// merges.
package obs

import (
	"encoding/json"
	"io"
	"slices"
	"strings"
	"sync"
)

// Counter is a read view of one counter name: Value adds up what the
// registry's sources serve under it, now. A name no source serves reads
// 0 and creates nothing.
type Counter struct {
	r    *Registry
	name string
}

// Value returns the name's current count (0 on a nil registry).
func (c Counter) Value() int64 {
	if c.r == nil {
		return 0
	}
	return c.r.sourced(c.name)
}

// Source is one layer's metrics: tables of counter and gauge names,
// shared by every instance of the layer, and Fill, which writes c[i] for
// Counters[i] and g[i] for Gauges[i] from the layer's own fields. Prefix
// ("disk.3.") goes in front of every name when the names are read.
type Source struct {
	Prefix   string
	Counters []string
	Gauges   []string
	Fill     func(c []int64, g []float64)

	c []int64 // values of a frozen source, whose Fill is nil
	g []float64
}

func (s *Source) values() ([]int64, []float64) {
	if s.Fill == nil {
		return s.c, s.g
	}
	c, g := make([]int64, len(s.Counters)), make([]float64, len(s.Gauges))
	s.Fill(c, g)
	return c, g
}

// Registry is a concurrency-safe collection of registered Sources.
type Registry struct {
	mu      sync.Mutex
	sources []*Source
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Register adds a source, read from then on whenever the registry is.
// Registering into a nil registry does nothing.
func (r *Registry) Register(s *Source) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.sources = append(r.sources, s)
	r.mu.Unlock()
}

// Freeze reads a registered source once and serves those values from
// then on, whatever becomes of the layer.
func (r *Registry) Freeze(s *Source) {
	c, g := s.values()
	r.mu.Lock()
	s.c, s.g, s.Fill = c, g, nil
	r.mu.Unlock()
}

// sourced adds up the counters of name across the sources that serve
// it.
func (r *Registry) sourced(name string) (c int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.sources {
		if rest, ok := strings.CutPrefix(name, s.Prefix); ok {
			if i := slices.Index(s.Counters, rest); i >= 0 {
				cs, _ := s.values()
				c += cs[i]
			}
		}
	}
	return c
}

// Counter returns the read view of the named counter.
func (r *Registry) Counter(name string) Counter { return Counter{r, name} }

// Snapshot is a point-in-time copy of a registry's values.
type Snapshot struct {
	Counters map[string]int64
	Gauges   map[string]float64
}

// Snapshot reads every source; counters of one name add up, and of
// gauges the last read wins.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{Counters: map[string]int64{}, Gauges: map[string]float64{}}
	for _, src := range r.sources {
		c, g := src.values()
		for i, name := range src.Counters {
			s.Counters[src.Prefix+name] += c[i]
		}
		for i, name := range src.Gauges {
			s.Gauges[src.Prefix+name] = g[i]
		}
	}
	return s
}

// Merge adds src's metrics into r with every name prefixed — how a
// suite-level registry absorbs the private registry of one finished run
// ("BUK/P/" + "vm.faults.major", ...). Each of src's sources is read now
// and frozen under the prefix, so r keeps the values as of the merge.
func (r *Registry) Merge(prefix string, src *Registry) {
	if src == nil {
		return
	}
	src.mu.Lock()
	frozen := make([]Source, len(src.sources))
	for i, s := range src.sources {
		c, g := s.values()
		frozen[i] = Source{Prefix: prefix + s.Prefix, Counters: s.Counters, Gauges: s.Gauges, c: c, g: g}
	}
	src.mu.Unlock()

	r.mu.Lock()
	for i := range frozen {
		r.sources = append(r.sources, &frozen[i])
	}
	r.mu.Unlock()
}

// WriteJSON writes the registry as one flat JSON object, keys sorted,
// counters as integers and gauges as floats — the machine-readable
// metrics snapshot experiments diff against each other.
func (r *Registry) WriteJSON(w io.Writer) error {
	s := r.Snapshot()
	flat := make(map[string]any, len(s.Counters)+len(s.Gauges))
	for name, v := range s.Counters {
		flat[name] = v
	}
	for name, v := range s.Gauges {
		flat[name] = v
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(flat)
}

// RunObs bundles the observability sinks of one simulated run: the
// metrics registry every layer registers its Source in, and the trace
// process the run's tracks hang off. A nil *RunObs (or nil fields) is
// valid and means "not observed": each layer registers in a private
// registry nothing reads, and tracing is disabled.
type RunObs struct {
	Reg  *Registry
	Proc *Proc
}

// Registry returns the bundle's registry, creating a fresh private one
// when the bundle (or its registry) is nil. Callers should resolve once
// and keep the result.
func (o *RunObs) Registry() *Registry {
	if o == nil || o.Reg == nil {
		return NewRegistry()
	}
	return o.Reg
}

// Thread returns a new named track on the bundle's trace process, or nil
// when tracing is disabled.
func (o *RunObs) Thread(name string) *Track {
	if o == nil {
		return nil
	}
	return o.Proc.Thread(name)
}
