// Package obs is the unified observability layer shared by every part of
// the simulated system: a typed metrics registry and a structured event
// tracer with a Chrome trace-event exporter.
//
// The design goal is that observability is free when it is off and cheap
// when it is on. Metric counters are pre-resolved handles (one atomic add
// per event); trace emission through a nil Track costs exactly one nil
// check per event; and the hot emission path allocates nothing beyond the
// amortized growth of the event buffer.
//
// The registry is where the layers publish their event counts, not where
// they count them. Each layer counts in plain fields of its own
// statistics type (vm.Stats, disk.Stats, rt.Stats, fault.Counts) on its
// run's single goroutine; its Stats, Times or Counts accessor stores those
// fields into the registry's counters as a side effect, with absolute
// stores, the layer being their sole writer. A registry snapshot is
// therefore as current as the last accessor call.
package obs

import (
	"encoding/json"
	"io"
	"math"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric. All methods are
// safe for concurrent use and safe on a nil receiver (a nil counter
// silently discards, so optional metrics cost one nil check).
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Store overwrites the count. It exists for end-of-run absolutes and for
// accounting resets; steady-state accounting should only Add.
func (c *Counter) Store(n int64) {
	if c == nil {
		return
	}
	c.v.Store(n)
}

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float-valued metric for fractions and utilizations. Like
// Counter it is concurrency- and nil-safe.
type Gauge struct{ bits atomic.Uint64 }

// Set overwrites the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current value (0 on a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Registry is a concurrency-safe collection of named metrics. Lookup
// creates on first use and returns a stable handle, so hot paths resolve
// their counters once and then pay only an atomic add per event.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Snapshot is a point-in-time copy of a registry's values.
type Snapshot struct {
	Counters map[string]int64
	Gauges   map[string]float64
}

// Snapshot copies the current value of every metric.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
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
	return s
}

// Merge adds a snapshot of src into r with every metric name prefixed —
// how a suite-level registry absorbs the private registry of one finished
// run ("BUK/P/" + "vm.faults.major", ...).
func (r *Registry) Merge(prefix string, src *Registry) {
	if src == nil {
		return
	}
	s := src.Snapshot()
	for name, v := range s.Counters {
		r.Counter(prefix + name).Add(v)
	}
	for name, v := range s.Gauges {
		r.Gauge(prefix + name).Set(v)
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
// metrics registry every layer registers its counters in, and the trace
// process the run's tracks hang off. A nil *RunObs (or nil fields) is
// valid and means "not observed": the layers still publish their stats
// into a private registry, and tracing is disabled.
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
