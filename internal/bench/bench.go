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

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/nas"
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

// Case is one cell of an experiment matrix: an application at a problem
// size, on a machine sized from a data:memory ratio, under a
// configuration overlay. Every figure, ablation, suite and record pass
// is a list of cases handed to Runner.RunCases.
type Case struct {
	App *nas.App
	// Scale multiplies the problem size; <= 0 means 1 (the standard
	// size).
	Scale float64
	// Ratio is the data:memory ratio the machine is sized from; <= 0
	// means the app's standard out-of-core ratio.
	Ratio float64
	// Label prefixes the case's runs in the trace, the metrics and the
	// progress output ("<label>/<variant>"); empty means the app name.
	Label string
	// Config, if set, overlays the sized base configuration of every
	// variant of the case: compiler options, warm start, the machine
	// itself, a storage backend (c.Backend) or a fault profile
	// (c.Faults). The variant's own adjustment is applied after it.
	Config func(*core.Config)
}

// SuiteOptions configure a whole-suite run: one case per NAS app. The
// worker pool and the observability sinks are the Runner's.
type SuiteOptions struct {
	// Scale multiplies every app's problem size; <= 0 means 1.
	Scale float64
	// Ratio overrides the data:memory ratio; <= 0 means each app's
	// standard out-of-core ratio.
	Ratio float64
	// WithNoRT additionally runs each app without the run-time layer.
	WithNoRT bool
	// ConfigMutator, if set, is every case's Config overlay.
	ConfigMutator func(*core.Config)
	// ProfileUse, if non-nil, feeds every prefetching run the matching
	// kernel's recorded execution profile (pass 2 of the two-pass mode;
	// see RecordProfiles). Kernels absent from the set compile statically.
	ProfileUse *profile.Set
}

func (o SuiteOptions) cases() []Case {
	apps := nas.Apps()
	cases := make([]Case, len(apps))
	for i, app := range apps {
		cases[i] = Case{App: app, Scale: o.Scale, Ratio: o.Ratio, Config: o.ConfigMutator}
	}
	return cases
}

// ConfigFor sizes one app into its base run configuration — the
// standard prefetching configuration on a machine holding 1/ratio of the
// data set at the given scale, seeded by the app — and reports the
// data-set size. ratio <= 0 means the app's standard ratio.
func ConfigFor(app *nas.App, scale, ratio float64) (core.Config, int64, error) {
	if ratio <= 0 {
		ratio = app.Ratio()
	}
	prog := app.Build(scale)
	ps := hw.Default().PageSize
	if err := prog.Resolve(ps); err != nil {
		return core.Config{}, 0, err
	}
	data := nas.DataBytes(prog, ps)
	cfg := core.DefaultConfig(core.MachineFor(data, ratio))
	cfg.Seed = app.Seed
	return cfg, data, nil
}

// variant is one configuration a case runs in: the tag its label ends
// in, the adjustment it applies over the case's configuration, and the
// AppResult slot its result fills.
type variant struct {
	tag    string
	adjust func(*core.Config)
	slot   func(*AppResult) **core.Result
}

var (
	original = variant{"O", func(c *core.Config) { c.Prefetch = false },
		func(a *AppResult) **core.Result { return &a.O }}
	prefetching = variant{"P", func(*core.Config) {},
		func(a *AppResult) **core.Result { return &a.P }}
	noRuntime = variant{"no-rt", func(c *core.Config) { c.RuntimeFilter = false },
		func(a *AppResult) **core.Result { return &a.NoRT }}
	// record is pass 1 of the two-pass mode: the original run with
	// observation-only instrumentation, its recording in O.Profile.
	record = variant{"record", func(c *core.Config) {
		c.Prefetch = false
		c.Profile = &core.ProfileSpec{Record: true}
	}, func(a *AppResult) **core.Result { return &a.O }}
)

// RunCases runs every case in its original and prefetching
// configurations (and, withNoRT, without the run-time layer). Each
// (case, variant) pair is one pool job on a private simulated system;
// results come back in case order whatever the completion order, and
// cancelling ctx aborts in-flight runs within one simulated event.
func (r *Runner) RunCases(ctx context.Context, cases []Case, withNoRT bool) ([]*AppResult, error) {
	return r.runCases(ctx, cases, pairVariants(withNoRT), nil)
}

func pairVariants(withNoRT bool) []variant {
	if withNoRT {
		return []variant{original, prefetching, noRuntime}
	}
	return []variant{original, prefetching}
}

// runCases is the harness's one fan-out. It sizes each case once,
// applies the case overlay and then the variant adjustment, and submits
// every (case, variant) as a job that builds the program, runs it,
// validates the result against the kernel's independent reference
// implementation and merges the run's counters (which land in a private
// registry, so concurrent siblings never contend) into r.Metrics under
// "<label>/<tag>/". The run traces into r.Trace as a process of that
// name. profiles guide only prefetching runs (Use requires Prefetch),
// and a ProfileSpec the overlay set wins.
func (r *Runner) runCases(ctx context.Context, cases []Case, variants []variant, profiles *profile.Set) ([]*AppResult, error) {
	out := make([]*AppResult, len(cases))
	var jobs []Job
	for i, c := range cases {
		app, scale := c.App, c.Scale
		if scale <= 0 {
			scale = 1
		}
		base, data, err := ConfigFor(app, scale, c.Ratio)
		if err != nil {
			return nil, err
		}
		if c.Config != nil {
			c.Config(&base)
		}
		label := c.Label
		if label == "" {
			label = app.Name
		}
		out[i] = &AppResult{Name: app.Name, DataBytes: data, Machine: base.Machine}
		for _, v := range variants {
			cfg, tag, dst := base, label+"/"+v.tag, v.slot(out[i])
			v.adjust(&cfg)
			cfg.Trace, cfg.TraceName = r.Trace, tag
			jobs = append(jobs, Job{Label: tag, Run: func(ctx context.Context) error {
				prog := app.Build(scale)
				if p := profiles.For(prog.Name); p != nil && cfg.Prefetch && cfg.Profile == nil {
					cfg.Profile = &core.ProfileSpec{Use: p}
				}
				res, err := core.RunContext(ctx, prog, cfg)
				if err == nil {
					err = app.Check(prog, res.VM, res.Env)
				}
				if err != nil {
					return fmt.Errorf("%s: %w", app.Name, err)
				}
				if r.Metrics != nil {
					r.Metrics.Merge(tag+"/", res.Metrics)
				}
				*dst = res
				return nil
			}})
		}
	}
	if _, err := r.Run(ctx, jobs); err != nil {
		return nil, err
	}
	return out, nil
}

// RunSuiteContext runs the whole NAS suite on r. Results come back in
// the paper's presentation order.
func RunSuiteContext(ctx context.Context, r Runner, opts SuiteOptions) ([]*AppResult, error) {
	return r.runCases(ctx, opts.cases(), pairVariants(opts.WithNoRT), opts.ProfileUse)
}

// RecordProfiles runs pass 1 of the two-pass profile-guided mode over
// the whole NAS suite: every app executes once in its original (no
// prefetching) configuration with observation-only instrumentation —
// tick-identical to a plain run — and the per-reference recordings come
// back as one artifact set keyed by kernel name. Feed the set back
// through SuiteOptions.ProfileUse (or oocbench -profile-use) for
// pass 2. Scale, ratio and the overlay (backend, faults) shape what the
// recording observes, so record under the configuration you intend to
// run; WithNoRT and ProfileUse are ignored.
func RecordProfiles(ctx context.Context, r Runner, opts SuiteOptions) (*profile.Set, error) {
	rs, err := r.runCases(ctx, opts.cases(), []variant{record}, nil)
	if err != nil {
		return nil, err
	}
	set := profile.NewSet()
	for _, a := range rs {
		set.Add(a.O.Profile)
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
