// Package bench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation section (§3–§4) from the simulated
// system, printing the same rows and series the paper reports. Absolute
// numbers differ (the substrate is a simulator, not the authors' Hector
// testbed); the shapes — who wins, by what factor, where the crossovers
// fall — are the reproduction targets recorded in EXPERIMENTS.md.
//
// Every (app, scale, ratio, config-variant) tuple is an independent
// simulated run, so the harness fans the experiment matrix out across a
// worker pool (Runner) and collects results by submission index —
// parallel output is byte-identical to a serial run.
package bench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/hw"
	"repro/internal/nas"
	"repro/internal/obs"
	"repro/internal/profile"
)

// AppResult bundles the runs of one application under one problem size.
type AppResult struct {
	Name      string
	DataBytes int64
	Machine   hw.Params
	O         *core.Result // original: plain paged virtual memory
	P         *core.Result // compiler-inserted prefetching + run-time layer
	NoRT      *core.Result // prefetching without the run-time layer (Fig 4(c)); may be nil
}

// Speedup returns O time / P time.
func (a *AppResult) Speedup() float64 { return a.P.Speedup(a.O) }

// StallEliminated returns the fraction of the original run's idle (I/O
// stall) time that prefetching removed.
func (a *AppResult) StallEliminated() float64 {
	if a.O.Times.Idle == 0 {
		return 0
	}
	saved := a.O.Times.Idle - a.P.Times.Idle
	return float64(saved) / float64(a.O.Times.Idle)
}

// RunOptions configure a single-application run.
type RunOptions struct {
	// Scale multiplies the problem size; <= 0 means 1 (the standard
	// size).
	Scale float64
	// Ratio is the data:memory ratio; <= 0 means the app's standard
	// out-of-core ratio.
	Ratio float64
	// WithNoRT additionally runs the no-run-time-layer configuration
	// (Figure 4(c)).
	WithNoRT bool
	// Parallelism is the worker-pool size for the app's configuration
	// variants; <= 0 means GOMAXPROCS.
	Parallelism int
	// Timeout, if positive, bounds each variant's wall-clock time.
	Timeout time.Duration
	// ConfigMutator, if set, adjusts the base configuration of every
	// variant (compiler options, scheduling, warm start, ...).
	ConfigMutator func(*core.Config)
	// Trace, if non-nil, collects a Chrome-trace timeline: one process
	// per variant run, named "<label>/<variant>".
	Trace *obs.Trace
	// Metrics, if non-nil, receives each variant run's counters merged
	// under a "<label>/<variant>/" prefix when the run completes.
	Metrics *obs.Registry
	// Label is the trace/metrics prefix for this app's runs; empty means
	// the app name.
	Label string
	// Faults, if non-nil and enabled, injects the deterministic fault
	// profile into every variant run (core.Config.Faults). Results are
	// unchanged by construction; timing and fault counters are not.
	Faults *fault.Profile
	// Backend, if non-nil, runs every variant on the spec's storage tier
	// (core.Config.Backend). Results are identical across tiers by
	// construction; timing is not.
	Backend *core.BackendSpec
	// ProfileUse, if non-nil, feeds each prefetching variant the matching
	// kernel's recorded execution profile (pass 2 of the two-pass mode;
	// see RecordProfiles). Kernels absent from the set compile statically.
	ProfileUse *profile.Set
}

// SuiteOptions configure a whole-suite run.
type SuiteOptions struct {
	// Scale multiplies every app's problem size; <= 0 means 1.
	Scale float64
	// Ratio overrides the data:memory ratio; <= 0 means each app's
	// standard out-of-core ratio.
	Ratio float64
	// WithNoRT additionally runs each app without the run-time layer.
	WithNoRT bool
	// Parallelism is the worker-pool size; <= 0 means GOMAXPROCS.
	Parallelism int
	// Timeout, if positive, bounds each run's wall-clock time.
	Timeout time.Duration
	// Progress, if set, observes each run's completion.
	Progress ProgressFunc
	// ConfigMutator, if set, adjusts every run's base configuration.
	ConfigMutator func(*core.Config)
	// Trace, if non-nil, collects a Chrome-trace timeline: one process
	// per run plus one for the worker pool.
	Trace *obs.Trace
	// Metrics, if non-nil, receives every run's counters merged under
	// "<app>/<variant>/" prefixes plus the pool's own runner.* counters.
	Metrics *obs.Registry
	// Faults, if non-nil and enabled, injects the deterministic fault
	// profile into every run of the suite.
	Faults *fault.Profile
	// Backend, if non-nil, runs the whole suite on the spec's storage
	// tier (core.Config.Backend).
	Backend *core.BackendSpec
	// ProfileUse, if non-nil, feeds every prefetching run the matching
	// kernel's recorded execution profile (pass 2 of the two-pass mode;
	// see RecordProfiles). Kernels absent from the set compile statically.
	ProfileUse *profile.Set
}

func (o SuiteOptions) runner() *Runner {
	return &Runner{Parallelism: o.Parallelism, Timeout: o.Timeout, Progress: o.Progress,
		Trace: o.Trace, Metrics: o.Metrics}
}

// sinks bundles the harness-level observability collectors threaded into
// every simulated run. The zero value means observability is off.
type sinks struct {
	trace   *obs.Trace
	metrics *obs.Registry
}

// withFaults composes a config mutator with a fault profile: the profile
// is applied after the caller's mutator, so a harness-level fault option
// wins over per-variant adjustments.
func withFaults(mutate func(*core.Config), prof *fault.Profile) func(*core.Config) {
	if prof == nil {
		return mutate
	}
	return func(c *core.Config) {
		if mutate != nil {
			mutate(c)
		}
		c.Faults = prof
	}
}

// withBackend composes a config mutator with a backend spec, applied
// after the caller's mutator like withFaults.
func withBackend(mutate func(*core.Config), spec *core.BackendSpec) func(*core.Config) {
	if spec == nil {
		return mutate
	}
	return func(c *core.Config) {
		if mutate != nil {
			mutate(c)
		}
		c.Backend = spec
	}
}

// appConfig resolves one app at (scale, ratio) into its base run
// configuration and data-set size. ratio must already be resolved
// (> 0).
func appConfig(app *nas.App, scale, ratio float64, mutate func(*core.Config)) (*core.Config, int64, error) {
	prog := app.Build(scale)
	ps := hw.Default().PageSize
	if err := prog.Resolve(ps); err != nil {
		return nil, 0, err
	}
	data := nas.DataBytes(prog, ps)
	cfg := core.DefaultConfig(core.MachineFor(data, ratio))
	cfg.Seed = app.Seed
	if mutate != nil {
		mutate(&cfg)
	}
	return &cfg, data, nil
}

// runVariant runs one (app, scale, ratio, config-variant) tuple on a
// fresh simulated system and validates the result against the kernel's
// independent reference implementation. The run traces into snk.trace as
// a process named label, and its counters (which land in a per-run
// private registry, so concurrent siblings never contend) merge into
// snk.metrics under "label/" once it completes.
func runVariant(ctx context.Context, app *nas.App, scale, ratio float64, mutate, adjust func(*core.Config), profiles *profile.Set, snk sinks, label string) (*core.Result, error) {
	cfg, _, err := appConfig(app, scale, ratio, mutate)
	if err != nil {
		return nil, err
	}
	if adjust != nil {
		adjust(cfg)
	}
	cfg.Trace = snk.trace
	cfg.TraceName = label
	prog := app.Build(scale)
	// Profiles guide only the prefetching variants (Use requires
	// Prefetch), and an explicit per-variant ProfileSpec wins.
	if cfg.Prefetch && cfg.Profile == nil {
		if p := profiles.For(prog.Name); p != nil {
			cfg.Profile = &core.ProfileSpec{Use: p}
		}
	}
	res, err := core.RunContext(ctx, prog, *cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", app.Name, err)
	}
	if err := app.Check(prog, res.VM, res.Env); err != nil {
		return nil, fmt.Errorf("%s: %w", app.Name, err)
	}
	if snk.metrics != nil {
		snk.metrics.Merge(label+"/", res.Metrics)
	}
	return res, nil
}

// appVariantJobs returns the runner jobs for one app's configuration
// variants, writing each result into its slot of out. ratio must
// already be resolved.
func appVariantJobs(app *nas.App, scale, ratio float64, mutate func(*core.Config), withNoRT bool, profiles *profile.Set, out *AppResult, snk sinks, base string) []Job {
	if base == "" {
		base = app.Name
	}
	mk := func(tag string, dst **core.Result, adjust func(*core.Config)) Job {
		label := base + "/" + tag
		return Job{
			Label: label,
			Run: func(ctx context.Context) error {
				r, err := runVariant(ctx, app, scale, ratio, mutate, adjust, profiles, snk, label)
				if err != nil {
					return err
				}
				*dst = r
				return nil
			},
		}
	}
	jobs := []Job{
		mk("O", &out.O, func(c *core.Config) { c.Prefetch = false }),
		mk("P", &out.P, nil),
	}
	if withNoRT {
		jobs = append(jobs, mk("no-rt", &out.NoRT, func(c *core.Config) { c.RuntimeFilter = false }))
	}
	return jobs
}

// RunAppContext runs one application's configuration variants (original,
// prefetching, and optionally no-run-time-layer), each on a private
// simulated system, in parallel. Cancelling ctx aborts in-flight runs
// within one simulated event.
func RunAppContext(ctx context.Context, app *nas.App, opts RunOptions) (*AppResult, error) {
	scale := opts.Scale
	if scale <= 0 {
		scale = 1
	}
	ratio := opts.Ratio
	if ratio <= 0 {
		ratio = app.Ratio()
	}
	mutate := withBackend(withFaults(opts.ConfigMutator, opts.Faults), opts.Backend)
	cfg, data, err := appConfig(app, scale, ratio, mutate)
	if err != nil {
		return nil, err
	}
	out := &AppResult{Name: app.Name, DataBytes: data, Machine: cfg.Machine}
	r := &Runner{Parallelism: opts.Parallelism, Timeout: opts.Timeout}
	snk := sinks{trace: opts.Trace, metrics: opts.Metrics}
	if _, err := r.Run(ctx, appVariantJobs(app, scale, ratio, mutate, opts.WithNoRT, opts.ProfileUse, out, snk, opts.Label)); err != nil {
		return nil, err
	}
	return out, nil
}

// RunSuiteContext runs the whole NAS suite, treating every (app,
// config-variant) tuple as an independent job on the worker pool.
// Results come back in the paper's presentation order whatever the
// completion order; cancelling ctx aborts in-flight runs within one
// simulated event and returns ctx.Err().
func RunSuiteContext(ctx context.Context, opts SuiteOptions) ([]*AppResult, error) {
	scale := opts.Scale
	if scale <= 0 {
		scale = 1
	}
	apps := nas.Apps()
	results := make([]*AppResult, len(apps))
	snk := sinks{trace: opts.Trace, metrics: opts.Metrics}
	mutate := withBackend(withFaults(opts.ConfigMutator, opts.Faults), opts.Backend)
	var jobs []Job
	for i, app := range apps {
		ratio := opts.Ratio
		if ratio <= 0 {
			ratio = app.Ratio()
		}
		cfg, data, err := appConfig(app, scale, ratio, mutate)
		if err != nil {
			return nil, err
		}
		results[i] = &AppResult{Name: app.Name, DataBytes: data, Machine: cfg.Machine}
		jobs = append(jobs, appVariantJobs(app, scale, ratio, mutate, opts.WithNoRT, opts.ProfileUse, results[i], snk, "")...)
	}
	if _, err := opts.runner().Run(ctx, jobs); err != nil {
		return nil, err
	}
	return results, nil
}

// RecordProfiles runs pass 1 of the two-pass profile-guided mode over
// the whole NAS suite: every app executes once in its original (no
// prefetching) configuration with observation-only instrumentation —
// tick-identical to a plain run — and the per-reference recordings come
// back as one artifact set keyed by kernel name. Feed the set back
// through SuiteOptions.ProfileUse (or oocbench -profile-use) for
// pass 2. Scale, ratio, backend, and fault options shape what the
// recording observes, so record under the configuration you intend to
// run; WithNoRT and ProfileUse are ignored.
func RecordProfiles(ctx context.Context, opts SuiteOptions) (*profile.Set, error) {
	scale := opts.Scale
	if scale <= 0 {
		scale = 1
	}
	apps := nas.Apps()
	profs := make([]*profile.Profile, len(apps))
	snk := sinks{trace: opts.Trace, metrics: opts.Metrics}
	mutate := withBackend(withFaults(opts.ConfigMutator, opts.Faults), opts.Backend)
	record := func(c *core.Config) {
		c.Prefetch = false
		c.Profile = &core.ProfileSpec{Record: true}
	}
	var jobs []Job
	for i, app := range apps {
		i, app := i, app
		ratio := opts.Ratio
		if ratio <= 0 {
			ratio = app.Ratio()
		}
		label := app.Name + "/record"
		jobs = append(jobs, Job{
			Label: label,
			Run: func(ctx context.Context) error {
				r, err := runVariant(ctx, app, scale, ratio, mutate, record, nil, snk, label)
				if err != nil {
					return err
				}
				profs[i] = r.Profile
				return nil
			},
		})
	}
	if _, err := opts.runner().Run(ctx, jobs); err != nil {
		return nil, err
	}
	set := profile.NewSet()
	for _, p := range profs {
		set.Add(p)
	}
	return set, nil
}

// TwoVersionOptions returns compiler options with the §4.1.1 two-version
// loop extension enabled (the APPBT ablation).
func TwoVersionOptions() *compiler.Options {
	o := compiler.DefaultOptions()
	o.TwoVersionLoops = true
	return &o
}
