// Package core assembles the complete system of the paper: the
// prefetching compiler, the striped multi-disk file system, the paged
// virtual memory with non-binding prefetch/release hints, the user-level
// run-time filtering layer, and the executor. One call runs a program in
// any of the paper's configurations — original paged VM (the "O" bars),
// compiler-inserted prefetching (the "P" bars), prefetching without the
// run-time layer (Figure 4(c)), warm- or cold-started (Figure 6) — and
// returns every statistic the evaluation section reports.
package core

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/compiler"
	"repro/internal/disk"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/hw"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/rt"
	"repro/internal/sim"
	"repro/internal/stripefs"
	"repro/internal/vm"
)

// Config selects a run configuration.
type Config struct {
	// Machine is the simulated platform. Use hw.Default() or size memory
	// with MachineFor.
	Machine hw.Params

	// Prefetch compiles the program with the prefetching pass (the "P"
	// configuration); false runs the original program on plain paged
	// virtual memory (the "O" configuration).
	Prefetch bool

	// Options are the compiler options; nil means
	// compiler.DefaultOptions().
	Options *compiler.Options

	// RuntimeFilter enables the user-level run-time layer. Disabling it
	// with Prefetch on reproduces Figure 4(c). It is forced on for
	// non-prefetching runs (it is never consulted).
	RuntimeFilter bool

	// WarmStart preloads the data set into memory (up to the pageout
	// daemon's high watermark) before the timed region, as in the
	// warm-started bars of Figure 6.
	WarmStart bool

	// Seed pre-initializes input files; nil if the program needs none.
	Seed func(prog *ir.Program, file *stripefs.File, pageSize int64)

	// Backend, if non-nil, selects the storage backend: it rebuilds
	// Machine's storage subsystem for the spec's tier (striped disks,
	// NVMe, far memory) with the spec's overrides, keeping Machine's
	// memory system and CPU model. Use ParseBackendSpec for the CLI
	// syntax. Nil runs on Machine's own tier (the paper's disks for
	// hw.Default()).
	Backend *BackendSpec

	// SamplePeriod, if positive, records a timeline of memory-manager
	// state every period of simulated time (Result.Timeline).
	SamplePeriod sim.Time

	// Trace, if non-nil, collects a Chrome-trace timeline of the run: one
	// process per run, with tracks for the VM core ("cpu", "faults"), each
	// disk, and classification instants for every fault. Nil costs one
	// nil-check per event.
	Trace *obs.Trace

	// TraceName names the run's process in the trace; empty defaults to
	// the program name.
	TraceName string

	// Metrics, if non-nil, is the registry every layer's counters register
	// in, so one run's metrics land beside others'. Nil gives the run a
	// private registry, returned in Result.Metrics either way.
	Metrics *obs.Registry

	// Faults, if non-nil and enabled, injects deterministic faults into
	// the run: per-disk transient read/write errors and latency spikes,
	// whole-disk brownouts, and synthetic memory-pressure spikes that drop
	// prefetch hints. Results are unaffected by construction — hints are
	// non-binding and demand I/O retries until it succeeds — only timing
	// and the fault/degradation counters change. The profile must
	// Validate; use fault.ProfileByName or fault.ParseSpec.
	Faults *fault.Profile

	// Profile, if non-nil, selects one pass of the two-pass
	// profile-guided prefetch mode (record or use).
	Profile *ProfileSpec
}

// ProfileSpec configures the two-pass profile-guided mode for one run.
// Exactly one of Record and Use may be set.
type ProfileSpec struct {
	// Record runs pass 1: the ORIGINAL program executes (Prefetch is
	// ignored) with observation-only instrumentation, and the recorded
	// profile is returned in Result.Profile. Recording charges no
	// simulated operations, so results, times, and statistics are
	// identical to a plain original run.
	Record bool

	// Use runs pass 2: the profile is fed to the prefetching compiler
	// (compiler.Options.Profile), which replaces its static distance
	// formula with observed latencies and hints references static
	// analysis skips. Requires Prefetch. Sites that do not match the
	// profile keep their static plan; the mismatch count lands in
	// Result.ProfileMismatches and the "profile.mismatch" metric.
	Use *profile.Profile
}

// DefaultConfig returns the standard prefetching configuration.
func DefaultConfig(machine hw.Params) Config {
	return Config{
		Machine:       machine,
		Prefetch:      true,
		RuntimeFilter: true,
	}
}

// MachineFor sizes the default platform so that dataBytes stands in the
// given ratio to available memory (ratio 2 = data twice as large as
// memory, the paper's standard out-of-core setting).
func MachineFor(dataBytes int64, ratio float64) hw.Params {
	p := hw.Default()
	mem := int64(float64(dataBytes) / ratio)
	// Round to whole pages with a sane floor.
	mem = mem / p.PageSize * p.PageSize
	if mem < 16*p.PageSize {
		mem = 16 * p.PageSize
	}
	p.MemoryBytes = mem
	return p
}

// Result carries everything the experiments report about one run.
type Result struct {
	Prog    *ir.Program // the program that actually executed
	Plan    []compiler.PlanEntry
	Env     *exec.Env
	VM      *vm.VM
	Elapsed sim.Time

	Times   vm.TimeStats
	Mem     vm.Stats
	RT      rt.Stats
	AvgFree float64

	// Timeline holds periodic samples when Config.SamplePeriod was set.
	Timeline []Sample

	DiskStats []disk.Stats
	DiskUtil  float64 // mean utilization across disks

	// Metrics is the registry the run's counters live in (Config.Metrics,
	// or the run's private registry). Times/Mem/RT/DiskStats above are
	// views assembled from it.
	Metrics *obs.Registry

	// Faults tallies what the fault plane injected (all zero when
	// Config.Faults was nil or disabled).
	Faults fault.Counts

	// FastPath reports, per loop, whether it runs as a page-run span loop
	// or plain kernel bytecode, and why not the former.
	FastPath []exec.LoopReport

	// Profile is the recording from a ProfileSpec.Record run; nil
	// otherwise.
	Profile *profile.Profile

	// ProfileMismatches counts profile/program site mismatches from a
	// ProfileSpec.Use compile (also published as "profile.mismatch").
	ProfileMismatches int64

	// PlanCacheHit reports whether this run reused a previously compiled
	// plan from the process-wide cache (always false in
	// profile-recording runs).
	PlanCacheHit bool
}

// Speedup returns how much faster this run is than base:
// base.Elapsed / r.Elapsed.
func (r *Result) Speedup(base *Result) float64 {
	if r.Elapsed == 0 {
		return 0
	}
	return float64(base.Elapsed) / float64(r.Elapsed)
}

// Run executes one program under one configuration on a fresh simulated
// system. It is RunContext with a background context.
func Run(prog *ir.Program, cfg Config) (*Result, error) {
	return RunContext(context.Background(), prog, cfg)
}

// RunContext executes one program under one configuration on a fresh
// simulated system, honoring ctx: cancellation (or a deadline, e.g. a
// per-run timeout) aborts the run's event loop within one simulated
// event and returns ctx's error. A context that can never be cancelled
// costs nothing extra.
func RunContext(ctx context.Context, prog *ir.Program, cfg Config) (res *Result, err error) {
	if e := ctx.Err(); e != nil {
		return nil, e
	}
	machine := cfg.Machine
	if machine.PageSize == 0 {
		machine = hw.Default()
	}
	var mkSched func() disk.Scheduler // nil is FCFS
	if cfg.Backend != nil {
		m, err := cfg.Backend.Apply(machine)
		if err != nil {
			return nil, err
		}
		machine = m
		mkSched, _ = disk.SchedulerFor(cfg.Backend.Sched) // Apply validated the name
	}
	if err := machine.Validate(); err != nil {
		return nil, err
	}
	if err := prog.Resolve(machine.PageSize); err != nil {
		return nil, err
	}

	recording := false
	if cfg.Profile != nil {
		if cfg.Profile.Record && cfg.Profile.Use != nil {
			return nil, fmt.Errorf("core: ProfileSpec sets both Record and Use")
		}
		if cfg.Profile.Use != nil && !cfg.Prefetch {
			return nil, fmt.Errorf("core: ProfileSpec.Use requires Prefetch")
		}
		recording = cfg.Profile.Record
	}

	execProg := prog
	var plan []compiler.PlanEntry
	var mismatches int64
	var art *exec.Artifact
	var rec *profile.Recorder
	planCacheHit := false
	copts := compiler.DefaultOptions()
	if cfg.Options != nil {
		copts = *cfg.Options
	}
	if cfg.Profile != nil && cfg.Profile.Use != nil {
		copts.Profile = cfg.Profile.Use
	}
	if recording {
		// A recording compile bypasses the plan cache: its bytecode feeds
		// this run's recorder, and one recording per program leaves no
		// traffic to cache.
		rec = profile.NewRecorder(prog, machine.PageSize)
		if art, err = exec.Compile(prog, machine.PageSize, exec.Options{Profile: rec}); err != nil {
			return nil, fmt.Errorf("core: compile %s: %w", prog.Name, err)
		}
	} else {
		// Compile-once path: analysis, planning, and bytecode assembly
		// are shared across runs with identical (machine, program,
		// options) keys; only VM binding happens per run.
		ent, hit := cachedPlan(prog, machine, cfg.Prefetch, copts)
		if ent.err != nil {
			return nil, fmt.Errorf("core: compile %s: %w", prog.Name, ent.err)
		}
		execProg = ent.execProg
		plan = ent.plan
		mismatches = ent.mismatches
		art = ent.art
		planCacheHit = hit
	}

	clock := sim.NewClock()
	if ctx.Done() != nil {
		clock.SetInterrupt(ctx.Err)
	}
	// A cancelled run and a trap in the executing program (a subscript
	// outside its array, an integer division by zero) both unwind the
	// simulation with a panic; they are the run's error, not the
	// process's.
	defer func() {
		switch r := recover().(type) {
		case nil:
		case sim.Interrupted:
			res, err = nil, r.Err
		case *exec.TrapError:
			res, err = nil, fmt.Errorf("core: run %s: %w", prog.Name, r)
		case runtime.Error:
			if r.Error() != "runtime error: integer divide by zero" {
				panic(r)
			}
			res, err = nil, fmt.Errorf("core: run %s: %w", prog.Name, exec.DivideTrap())
		default:
			panic(r)
		}
	}()
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	o := &obs.RunObs{Reg: reg}
	if cfg.Trace != nil {
		name := cfg.TraceName
		if name == "" {
			name = prog.Name
		}
		o.Proc = cfg.Trace.NewProcess(name)
	}
	fs := stripefs.NewObserved(clock, machine, mkSched, o)
	pages := prog.TotalBytes(machine.PageSize) / machine.PageSize
	if pages == 0 {
		pages = 1
	}
	file, err := fs.Create(prog.Name, pages)
	if err != nil {
		return nil, err
	}
	v := vm.NewObserved(clock, machine, file, o)
	var inj *fault.Injector
	if cfg.Faults != nil && cfg.Faults.Enabled() {
		if err := cfg.Faults.Validate(); err != nil {
			return nil, err
		}
		// The injector's trace track exists only when faults are on, so
		// fault-free traces keep their exact golden shape.
		inj = fault.NewInjector(*cfg.Faults, reg, o.Thread("fault-injector"))
		fs.SetFaults(inj)
		v.SetFaults(inj)
	}
	layer := rt.RegisterObserved(v, cfg.RuntimeFilter || !cfg.Prefetch, reg)
	m, err := art.Bind(v, layer)
	if err != nil {
		return nil, err
	}
	if cfg.Seed != nil {
		cfg.Seed(prog, file, machine.PageSize)
	}
	if cfg.WarmStart {
		v.Preload(0, v.AllocatedPages())
		v.ResetAccounting()
	}

	clock.DeadlockInfo = func() string {
		out := ""
		for i, d := range fs.Backends() {
			out += fmt.Sprintf("disk %d: busy=%v queue=%d\n", i, d.Busy(), d.QueueLen())
		}
		return out
	}
	var smp *sampler
	if cfg.SamplePeriod > 0 {
		smp = startSampler(v, cfg.SamplePeriod)
	}
	start := clock.Now()
	env := m.Run()
	v.Finish()
	elapsed := clock.Now() - start
	// All I/O has drained: hand the run's request-object pools to the
	// next run's file system.
	fs.Recycle()

	r := &Result{
		Prog:    execProg,
		Plan:    plan,
		Env:     env,
		VM:      v,
		Elapsed: elapsed,
		Times:   v.Times(),
		Mem:     v.Stats(),
		RT:      layer.Stats(),
		AvgFree: v.AvgFreeFrac(),
		Metrics: reg,
		Faults:  inj.Counts(),

		FastPath: m.Reports(),

		ProfileMismatches: mismatches,
		PlanCacheHit:      planCacheHit,
	}
	if rec != nil {
		r.Profile = rec.Profile()
	}
	if cfg.Profile != nil && cfg.Profile.Use != nil {
		reg.Counter("profile.mismatch").Store(mismatches)
	}
	if smp != nil {
		r.Timeline = smp.stop()
	}
	var util float64
	for _, d := range fs.Backends() {
		r.DiskStats = append(r.DiskStats, d.Stats())
		util += d.Utilization(elapsed)
	}
	r.DiskUtil = util / float64(len(fs.Backends()))

	// End-of-run summary metrics: derived values the counters alone do
	// not carry.
	reg.Counter("run.elapsed_ns").Store(int64(elapsed))
	reg.Counter("exec.span_chunks").Store(env.Span.Chunks)
	reg.Counter("exec.span_declined").Store(env.Span.Declined)
	reg.Counter("exec.span_iters").Store(env.Span.Iters)
	reg.Counter("exec.span_user_ops").Store(env.Span.UserOps)
	reg.Counter("exec.span_lane_chunks").Store(env.Span.LaneChunks)
	reg.Counter("exec.span_lane_iters").Store(env.Span.LaneIters)
	reg.Counter("sim.events_scheduled").Store(clock.EventsScheduled())
	reg.Counter("sim.events_dispatched").Store(clock.EventsDispatched())
	reg.Gauge("run.avg_free_frac").Set(r.AvgFree)
	reg.Gauge("disk.util_mean").Set(r.DiskUtil)
	return r, nil
}
