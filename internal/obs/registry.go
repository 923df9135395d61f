// Package obs is the unified observability layer shared by every part of
// the simulated system: a typed metrics registry and a structured event
// tracer with a Chrome trace-event exporter.
//
// Observability is free when it is off and cheap when it is on. Trace
// emission through a nil Track costs one nil check per event. The
// registry reads the layers rather than being written by them: each
// layer counts in plain fields of its own statistics type (vm.Stats,
// disk.Stats, rt.Stats, fault.Counts) on its run's single goroutine and,
// at construction, registers one Source, which fills a fixed table of
// names from those fields. Snapshot, WriteJSON, Merge and a Counter's
// Value call the sources when they run, and prefixed names are built only
// then. A live source is read by the goroutine that owns its run, or
// after the run ends; Merge freezes what it reads, so any goroutine may
// read a registry that only merges. Counts bumped as events happen, from
// any goroutine, are atomic Counters.
package obs

import (
	"encoding/json"
	"io"
	"maps"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric. All methods are
// safe for concurrent use and safe on a nil receiver (a nil counter
// silently discards). The Counter a registry returns for a name a Source
// serves is a read view: Value reads the source, and Add panics.
type Counter struct {
	v    atomic.Int64
	view *Registry
	name string
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	if c.view != nil {
		panic("obs: " + c.name + " is read from a source; nothing adds to it")
	}
	c.v.Add(n)
}

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	if c.view != nil {
		v, _ := c.view.sourced(c.name)
		return v
	}
	return c.v.Load()
}

// Gauge is a float-valued metric for fractions and utilizations, safe
// like Counter, and likewise a read view for a name a Source serves.
type Gauge struct {
	bits atomic.Uint64
	view *Registry
	name string
}

// Set overwrites the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	if g.view != nil {
		panic("obs: " + g.name + " is read from a source; nothing sets it")
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current value (0 on a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	if g.view != nil {
		_, v := g.view.sourced(g.name)
		return v
	}
	return math.Float64frombits(g.bits.Load())
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

// serves reports whether name is one of the source's.
func (s *Source) serves(name string) bool {
	rest, ok := strings.CutPrefix(name, s.Prefix)
	return ok && (slices.Contains(s.Counters, rest) || slices.Contains(s.Gauges, rest))
}

// Registry is a concurrency-safe collection of named metrics: the
// registered Sources, and atomic counters and gauges created on first
// use.
type Registry struct {
	mu       sync.Mutex
	sources  []*Source
	counters map[string]*Counter
	gauges   map[string]*Gauge
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

// sourced reads the sources that serve name: counters add up, and the
// last gauge wins.
func (r *Registry) sourced(name string) (c int64, g float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.sources {
		if rest, ok := strings.CutPrefix(name, s.Prefix); ok {
			if i := slices.Index(s.Counters, rest); i >= 0 {
				cs, _ := s.values()
				c += cs[i]
			} else if j := slices.Index(s.Gauges, rest); j >= 0 {
				_, gs := s.values()
				g = gs[j]
			}
		}
	}
	return c, g
}

// handle returns m[name], creating it on first use, or false when a
// source serves name. The caller holds r.mu.
func handle[T any](r *Registry, m *map[string]*T, name string) (*T, bool) {
	if h := (*m)[name]; h != nil {
		return h, true
	}
	if slices.ContainsFunc(r.sources, func(s *Source) bool { return s.serves(name) }) {
		return nil, false
	}
	if *m == nil {
		*m = make(map[string]*T)
	}
	h := new(T)
	(*m)[name] = h
	return h, true
}

// Counter returns the named counter, creating it on first use, or a read
// view when a source serves the name (nil on a nil registry).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := handle(r, &r.counters, name); ok {
		return c
	}
	return &Counter{view: r, name: name}
}

// Gauge returns the named gauge, creating it on first use, or a read
// view when a source serves the name (nil on a nil registry).
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := handle(r, &r.gauges, name); ok {
		return g
	}
	return &Gauge{view: r, name: name}
}

// Snapshot is a point-in-time copy of a registry's values.
type Snapshot struct {
	Counters map[string]int64
	Gauges   map[string]float64
}

// Snapshot reads every source and copies every metric; counters of one
// name add up, and of gauges the last read wins.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters: make(map[string]int64, len(r.counters)),
		Gauges:   make(map[string]float64, len(r.gauges)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
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
	counters, gauges := maps.Clone(src.counters), maps.Clone(src.gauges)
	src.mu.Unlock()

	r.mu.Lock()
	for i := range frozen {
		r.sources = append(r.sources, &frozen[i])
	}
	r.mu.Unlock()
	for name, c := range counters {
		r.Counter(prefix + name).Add(c.Value())
	}
	for name, g := range gauges {
		r.Gauge(prefix + name).Set(g.Value())
	}
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
