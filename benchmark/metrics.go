package main

// metricDef declares one metric the benchmark emits. BENCHMARK.json
// carries the same lists; the test suite checks the two agree, so they
// cannot drift. README.md defines every metric and says which
// end-to-end metric each layer metric should move, on which workload.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median a change may lose
}

// endToEnd are the metrics a user of the system sees, on two clocks:
// host_* is wall time and memory of this process, sim_* is sim.Time of
// the prefetching configuration and repeats exactly for one seed. Every
// workload emits every one of them and none is ever 0.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"host_s_per_pass", "s", "lower", 0.25},
	{"host_allocs_per_pass", "count", "lower", 0.05},
	{"host_alloc_mb_per_pass", "MB", "lower", 0.05},
	{"sim_elapsed_s", "s", "lower", 0.15},
	{"sim_idle_share", "share", "lower", 0.25},
	{"sim_coverage", "share", "higher", 0.03},
	{"sim_hint_overhead_share", "share", "lower", 0.10},
}

// perLayer are the single-layer metrics of the traced run; the prefix is
// the module (compile. and trace. are the benchmark's own). They come
// from spans around calls into the layer (_us), from counts read off each
// run's results, and from isolated drives of one layer (ns_per_*); an
// est_us is drive × count, an outside estimate.
var perLayer = []metricDef{
	// Compile path: spans.
	{Name: "lang.parse_us", Unit: "us", Better: "lower"},
	{Name: "ir.resolve_us", Unit: "us", Better: "lower"},
	{Name: "ir.fingerprint_us", Unit: "us", Better: "lower"},
	{Name: "ir.clone_us", Unit: "us", Better: "lower"},
	{Name: "ir.print_us", Unit: "us", Better: "lower"},
	{Name: "locality.analyze_us", Unit: "us", Better: "lower"},
	{Name: "compiler.compile_us", Unit: "us", Better: "lower"},
	{Name: "exec.compile_us", Unit: "us", Better: "lower"},
	{Name: "compile.p90_ms", Unit: "ms", Better: "lower"},
	// Size of the generated code: counts.
	{Name: "compiler.plan_entries", Unit: "count", Better: "lower"},
	{Name: "compiler.hint_sites", Unit: "count", Better: "lower"},
	{Name: "compiler.printed_bytes", Unit: "bytes", Better: "lower"},
	{Name: "exec.loops_bytecode", Unit: "count", Better: "higher"},
	{Name: "exec.loops_span", Unit: "count", Better: "higher"},
	{Name: "exec.loops_oracle", Unit: "count", Better: "lower"},
	{Name: "exec.call_sites", Unit: "count", Better: "lower"},
	// Run assembly.
	{Name: "core.plancache_hit_share", Unit: "share", Better: "higher"},
	{Name: "core.run_cold_us", Unit: "us", Better: "lower"},
	{Name: "core.run_hit_us", Unit: "us", Better: "lower"},
	{Name: "core.setup_us", Unit: "us", Better: "lower"},
	{Name: "nas.seed_us", Unit: "us", Better: "lower"},
	{Name: "nas.check_us", Unit: "us", Better: "lower"},
	// The paper's O-relative aggregates (0 where a workload has no O run).
	{Name: "core.sim_speedup_geomean", Unit: "x", Better: "higher"},
	{Name: "core.sim_stall_eliminated", Unit: "share", Better: "higher"},
	{Name: "core.sim_hint_overhead_share", Unit: "share", Better: "lower"},
	// Execution.
	{Name: "exec.run_us", Unit: "us", Better: "lower"},
	{Name: "exec.dispatch_est_us", Unit: "us", Better: "lower"},
	{Name: "exec.host_ns_per_sim_user_ns", Unit: "ns/ns", Better: "lower"},
	// Run-time filter.
	{Name: "rt.inserted_pages", Unit: "count", Better: "lower"},
	{Name: "rt.filtered_share", Unit: "share", Better: "lower"},
	{Name: "rt.issued_calls", Unit: "count", Better: "lower"},
	{Name: "rt.budget_dropped", Unit: "count", Better: "lower"},
	{Name: "rt.ns_per_filtered_hint", Unit: "ns", Better: "lower"},
	{Name: "rt.est_us", Unit: "us", Better: "lower"},
	// Paged virtual memory.
	{Name: "vm.faults_major", Unit: "count", Better: "lower"},
	{Name: "vm.faults_minor", Unit: "count", Better: "lower"},
	{Name: "vm.prefetch_issued", Unit: "count", Better: "lower"},
	{Name: "vm.prefetch_unneeded", Unit: "count", Better: "lower"},
	{Name: "vm.prefetch_dropped", Unit: "count", Better: "lower"},
	{Name: "vm.prefetched_hit_share", Unit: "share", Better: "higher"},
	{Name: "vm.writebacks", Unit: "count", Better: "lower"},
	{Name: "vm.reclaims", Unit: "count", Better: "lower"},
	{Name: "vm.time_user_share", Unit: "share", Better: "higher"},
	{Name: "vm.time_sys_fault_share", Unit: "share", Better: "lower"},
	{Name: "vm.time_sys_prefetch_share", Unit: "share", Better: "lower"},
	{Name: "vm.time_idle_share", Unit: "share", Better: "lower"},
	{Name: "vm.ns_per_resident_load", Unit: "ns", Better: "lower"},
	{Name: "vm.ns_per_demand_fault", Unit: "ns", Better: "lower"},
	{Name: "vm.ns_per_prefetch_call", Unit: "ns", Better: "lower"},
	{Name: "vm.est_us", Unit: "us", Better: "lower"},
	// Striped file system.
	{Name: "stripefs.requeued", Unit: "count", Better: "lower"},
	{Name: "stripefs.ns_per_read_block", Unit: "ns", Better: "lower"},
	{Name: "stripefs.est_us", Unit: "us", Better: "lower"},
	// Storage devices.
	{Name: "disk.requests", Unit: "count", Better: "lower"},
	{Name: "disk.write_share", Unit: "share", Better: "lower"},
	{Name: "disk.util_mean", Unit: "share", Better: "lower"},
	{Name: "disk.retries", Unit: "count", Better: "lower"},
	{Name: "disk.ns_per_submit.disk", Unit: "ns", Better: "lower"},
	{Name: "disk.ns_per_submit.nvme", Unit: "ns", Better: "lower"},
	{Name: "disk.ns_per_submit.farmem", Unit: "ns", Better: "lower"},
	{Name: "disk.est_us", Unit: "us", Better: "lower"},
	// Event loop.
	{Name: "sim.events_dispatched", Unit: "count", Better: "lower"},
	{Name: "sim.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "sim.est_us", Unit: "us", Better: "lower"},
	{Name: "sim.host_ns_per_event_e2e", Unit: "ns", Better: "lower"},
	// Multi-tenant server.
	{Name: "tenant.admitted", Unit: "count", Better: "higher"},
	{Name: "tenant.queued", Unit: "count", Better: "lower"},
	{Name: "tenant.stall_share", Unit: "share", Better: "lower"},
	{Name: "tenant.sim_gold_finish_s", Unit: "s", Better: "lower"},
	{Name: "tenant.ns_per_step", Unit: "ns", Better: "lower"},
	// Honesty of the table itself.
	{Name: "trace.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "trace.coverage_share", Unit: "share", Better: "higher"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower"},
}
