package main

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/hw"
)

// sizing is how much work one pass of each workload does. The full size
// is what BENCHMARK.json's numbers are measured at; the smoke size
// exists so the test suite can drive every workload in seconds.
type sizing struct {
	nasScale  float64 // NAS problem scale before seed jitter
	programs  int     // compile_cold programs per pass
	tenants   int     // tenant_mix jobs per server
	mixes     int     // tenant_mix servers per pass, each with its own seeds
	pages     int64   // tenant_mix data region of one job, in pages
	setups    int     // set-ups per run; setup_s is their median
	minPasses int     // timed passes, however short --seconds is
	driveOps  int     // operations per isolated layer drive
}

var (
	fullSize  = sizing{nasScale: 1, programs: 200, tenants: 12, mixes: 6, pages: 2048, setups: 3, minPasses: 5, driveOps: 200000}
	smokeSize = sizing{nasScale: 0.05, programs: 20, tenants: 3, mixes: 2, pages: 128, setups: 1, minPasses: 1, driveOps: 2000}
)

// counts are the deterministic numbers of one pass: simulated-clock
// metrics and exact event counts. The same seed must give the same
// counts in every pass and every run.
type counts map[string]float64

// table is a printable set of rows: each app, tier or tenant in its own
// row beside the aggregates.
type table struct {
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
}

func (t table) print(w io.Writer) {
	fmt.Fprintf(w, "%s\n", t.Title)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "  "+strings.Join(t.Header, "\t"))
	for _, r := range t.Rows {
		fmt.Fprintln(tw, "  "+strings.Join(r, "\t"))
	}
	tw.Flush()
}

// passResult is what one pass of a workload produced.
type passResult struct {
	spanNS     []int64  // wall time inside each timed span, in the same order every pass
	mallocs    uint64   // heap allocations inside the timed spans
	allocBytes uint64   // bytes allocated inside the timed spans
	host       counts   // host-clock layer values only the workload can compute (traced pass)
	sim        counts   // deterministic numbers (see counts)
	rows       table    // per-app / per-tenant rows
	attempted  int      // runs attempted
	failures   []string // one line per run that errored or failed a check
}

// workload is one set of inputs the benchmark runs. The driver loop is a
// closed loop with one client: it calls pass again only after the
// previous pass returned, on one goroutine.
type workload interface {
	// setup generates the inputs from the seed and computes whatever
	// reference results validation needs. It does not run the warm-up
	// pass; the driver does, so that it is timed the same way everywhere.
	setup(seed uint64, sz sizing) error
	// pass runs the workload once. With a tracer it records a span around
	// each call into a layer and fills the artifact-derived counts too.
	pass(tr *tracer) passResult
}

// workloadDef names a workload and says why it exists. The names are
// fixed: later changes cite them.
type workloadDef struct {
	Name string
	Why  string
	New  func() workload
}

var workloads = []workloadDef{
	{"nas_disk", "paper's Figure 3/4 regime: 8 NAS proxies, O and P, disk tier; vm/stripefs/disk set simulated time, exec dispatch sets host time, compile layers idle (plan cache warm)",
		func() workload { return &nasWorkload{tiers: []hw.Tier{hw.TierDisk}} }},
	{"nas_fasttier", "same 8 proxies on NVMe and far memory: idle time is near zero, so hint placement and the rt filter dominate and prefetching is a net loss",
		func() workload { return &nasWorkload{tiers: []hw.Tier{hw.TierNVMe, hw.TierFarMemory}} }},
	{"compile_cold", "the ooccc flow with no simulation, 200 programs a pass: only lang/ir/locality/compiler/exec-compile work, which prices the plan cache and dual lowering",
		func() workload { return &compileWorkload{} }},
	{"tenant_mix", "6 mixes of 12 tenants on a shared pool and disk array under qos: async touches, quotas, hint budgets and writes, with no exec bytecode, so event loop and pool costs dominate",
		func() workload { return &tenantWorkload{} }},
}

func workloadByName(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// meter accumulates host time and heap allocations over the timed spans
// of one pass, and keeps each span's own time: the spans come in the same
// order in every pass. Validation runs outside them.
type meter struct {
	spans   []int64 // host nanoseconds of each span
	mallocs uint64
	bytes   uint64
}

// time runs f as one timed span. Every span starts from a collected
// heap, so where the collector's cycle stands when a run begins does not
// depend on what ran before it.
func (m *meter) time(f func()) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	f()
	m.spans = append(m.spans, int64(time.Since(t0)))
	runtime.ReadMemStats(&after)
	m.mallocs += after.Mallocs - before.Mallocs
	m.bytes += after.TotalAlloc - before.TotalAlloc
}

// guard runs f and turns a panic out of the program under test (a trapped
// subscript, a simulator deadlock) into that run's error, so one broken
// run is counted and listed instead of ending the benchmark.
func guard(f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return f()
}

// ratio is a/b, or 0 when the base is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
