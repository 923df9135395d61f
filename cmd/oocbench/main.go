// Command oocbench regenerates the paper's tables and figures.
//
// Usage:
//
//	oocbench [-exp all|table1|table2|fig3|fig4|fig5|table3|fig6|fig7|fig8|ablate]
//	         [-scale F] [-ratio F] [-mem MB]
//	         [-parallel N] [-timeout D] [-progress]
//	         [-backend SPEC] [-faults SPEC] [-trace FILE] [-metrics FILE]
//	         [-profile-record FILE | -profile-use FILE]
//	         [-tenants N] [-qos CLASSES] [-seed N]
//	         [-explain-fastpath] [-cpuprofile FILE] [-memprofile FILE]
//
// -scale multiplies every application's problem size (1 = standard);
// -ratio overrides the data:memory ratio (0 = each app's standard);
// -mem sets the Figure 8 machine memory in MB. A non-positive -scale or
// -mem and a negative -ratio are usage errors.
//
// Every experiment is a list of cases on one worker pool, and one pool
// job is one simulated run ("<case>/O", "<case>/P", ...): -parallel sets
// the pool's size (0 = GOMAXPROCS), -timeout bounds each run's wall-clock
// time, and -progress reports per-run completions on stderr. Results
// are collected by index, so parallel output is byte-identical to a
// serial run; Ctrl-C cancels in-flight runs cleanly. Sub-figure names
// (fig3a, fig4b, ...) are accepted as aliases for their figure.
//
// -backend runs every NAS suite run on the named storage tier instead
// of the paper's striped-disk array. The spec is a tier name ("nvme",
// "farmem") or "key=value" pairs ("tier=farmem,rtt=40us,batch=32",
// "disk,disks=4,sched=elevator"). Hints are non-binding and backends
// only change timing, so the figures' results are identical — the
// speedups are not. Like -faults, combining -backend with an experiment
// that runs no suite is a usage error.
//
// -faults injects a deterministic fault profile into every NAS suite
// run (the fig3/fig4/fig5/table3 experiments): transient disk errors,
// latency spikes, brownouts, and pressure-dropped prefetches. The spec
// is a profile name ("brownout") or "key=value" pairs
// ("profile=chaos,seed=7"); hints are non-binding, so results are
// unchanged — only timing and the fault.* / disk.*.retries counters
// move. Combining -faults with an experiment that runs no suite is a
// usage error rather than a silent no-op.
//
// -profile-record and -profile-use are the two passes of profile-guided
// prefetch insertion. -profile-record runs every NAS app once in its
// original configuration at -scale/-ratio with observation-only
// instrumentation (tick-identical to a plain run), writes the recorded
// per-reference profiles to FILE as a versioned artifact, and exits —
// it composes with -backend and -faults (record under the configuration
// you intend to run) but not with -exp. -profile-use FILE feeds the
// artifact back into every suite prefetching run, replacing the
// compiler's static distance model with observed miss latencies and
// hinting references static analysis skips; like -backend it requires a
// suite experiment. The two flags are mutually exclusive. Results are
// identical either way — profiles move hints, never data.
//
// -trace writes a Chrome trace-event JSON timeline of every simulated
// run (load it in Perfetto or chrome://tracing); -metrics writes a flat
// JSON snapshot of every run's counters keyed "<app>/<variant>/name".
//
// -tenants N runs the multi-tenant service benchmark instead of the
// paper experiments: N tenant kernels share one frame pool and one
// storage array under residency quotas, prefetch-priority classes, and
// admission control. -qos assigns classes per tenant as a comma list
// ("gold,silver,be"), cycled when shorter than N; -seed picks the
// deterministic scheduling seed (same mix and seed, byte-identical
// output). -scale, -backend, -faults, -trace, and -metrics compose with
// -tenants; the experiment-selection and worker-pool flags (-exp,
// -ratio, -mem, -parallel, -timeout, -progress, -explain-fastpath) do
// not — the service is one deterministic simulation, not a run matrix —
// and combining them is a usage error.
//
// -explain-fastpath runs every NAS proxy once at -scale and prints, per
// loop, which bytecode driver ran it (page-run span loop, with how many
// copies of absorbed inner loops its span body unrolls, or plain kernel
// loop) and the fallback reason when a loop missed the page-run path —
// "absorbed" for an inner loop folded into its parent's span body,
// "short-trip" for one statically too short to ever run spans; it ignores
// -exp and exits afterwards.
//
// -cpuprofile and -memprofile write pprof profiles of the harness itself
// (host time, not simulated time) for diagnosing executor overhead; see
// EXPERIMENTS.md for the profiling workflow.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/fault"
	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/profile"
)

// expAlias maps sub-figure names (as DESIGN.md's experiment index uses)
// to the experiment that regenerates them.
var expAlias = map[string]string{
	"fig3a": "fig3", "fig3b": "fig3",
	"fig4a": "fig4", "fig4b": "fig4", "fig4c": "fig4",
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// usageError is a mistake on the command line: exit status 2.
type usageError string

func (e usageError) Error() string { return string(e) }

// errFlags is a command line the flag package rejected; it has already
// printed the reason and the flag list.
var errFlags = errors.New("bad flags")

func usagef(format string, args ...any) error { return usageError(fmt.Sprintf(format, args...)) }

// run is main with its context, arguments and streams passed in. It
// returns the exit status: 2 for a usage error (one line on stderr,
// nothing on stdout), 1 for a run that failed.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	err := execute(ctx, args, stdout, stderr)
	var usage usageError
	switch {
	case err == nil:
		return 0
	case err == errFlags:
		return 2
	case errors.As(err, &usage):
		fmt.Fprintln(stderr, "oocbench:", err, "(-h lists the flags)")
		return 2
	}
	fmt.Fprintln(stderr, "oocbench:", err)
	return 1
}

func execute(ctx context.Context, args []string, w, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("oocbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment to run (all, table1, table2, fig3, fig4, fig5, table3, fig6, fig7, fig8, ablate)")
	scale := fs.Float64("scale", 1.0, "problem-size multiplier")
	ratio := fs.Float64("ratio", 0, "data:memory ratio (0 = per-app standard)")
	memMB := fs.Float64("mem", 6, "Figure 8 machine memory, MB")
	parallel := fs.Int("parallel", 0, "experiment worker-pool size (0 = GOMAXPROCS)")
	timeout := fs.Duration("timeout", 0, "per-run wall-clock timeout (0 = none)")
	progress := fs.Bool("progress", false, "report per-run progress on stderr")
	backendSpec := fs.String("backend", "", `storage backend for suite runs ("nvme", "tier=farmem,rtt=40us", ...)`)
	faultSpec := fs.String("faults", "", `fault profile for suite runs ("brownout", "profile=chaos,seed=7", ...)`)
	tracePath := fs.String("trace", "", "write a Chrome trace-event JSON timeline to this file")
	metricsPath := fs.String("metrics", "", "write a flat JSON metrics snapshot to this file")
	profileRecord := fs.String("profile-record", "", "record NAS execution profiles (pass 1) into FILE, then exit")
	profileUse := fs.String("profile-use", "", "guide suite prefetching runs with a recorded profile artifact (pass 2)")
	tenants := fs.Int("tenants", 0, "run the multi-tenant service benchmark with N tenants sharing one pool")
	qosSpec := fs.String("qos", "", `per-tenant QoS classes for -tenants ("gold,silver,be", cycled)`)
	seed := fs.Uint64("seed", 1, "deterministic scheduling seed for -tenants")
	explain := fs.Bool("explain-fastpath", false, "print each NAS loop's bytecode driver (page-run, with its absorbed-loop unroll count, or kernel) and fallback reason, then exit")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile at exit to this file")
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return nil
	} else if err != nil {
		return errFlags
	}

	// The zero defaults mean "pick for me" (GOMAXPROCS workers, no
	// timeout, each app's ratio); an explicit value the harness cannot
	// run is a mistake and must not silently run something else.
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) {
		set[f.Name] = true
		switch {
		case err != nil:
		case f.Name == "parallel" && *parallel <= 0:
			err = usagef("-parallel must be positive, got %d", *parallel)
		case f.Name == "timeout" && *timeout < 0:
			err = usagef("-timeout must not be negative, got %v", *timeout)
		case f.Name == "scale" && !(*scale > 0):
			err = usagef("-scale must be positive, got %g", *scale)
		case f.Name == "tenants" && *tenants <= 0:
			err = usagef("-tenants must be positive, got %d", *tenants)
		case f.Name == "mem" && !(*memMB > 0):
			err = usagef("-mem must be positive, got %g", *memMB)
		case f.Name == "ratio" && !(*ratio >= 0):
			err = usagef("-ratio must not be negative, got %g", *ratio)
		}
	})
	if err != nil {
		return err
	}
	// conflict reports the first of names that was set.
	conflict := func(format string, names ...string) error {
		for _, name := range names {
			if set[name] {
				return usagef(format, name)
			}
		}
		return nil
	}
	switch {
	case *profileRecord != "" && *profileUse != "":
		err = usagef("-profile-record and -profile-use are mutually exclusive: record pass 1, then run pass 2")
	case *profileRecord != "":
		// The record pass is its own run matrix; the experiment
		// selection has nothing to select.
		err = conflict("-%s does not apply to -profile-record", "exp", "mem", "explain-fastpath")
	}
	if err == nil && set["tenants"] {
		// The tenant service is one deterministic simulation; the run
		// matrix and experiment-selection flags have nothing to select.
		err = conflict("-%s does not apply to the -tenants service benchmark",
			"exp", "ratio", "mem", "parallel", "timeout", "progress", "explain-fastpath", "profile-record", "profile-use")
	} else if err == nil {
		err = conflict("-%s requires -tenants", "qos", "seed")
	}
	if err != nil {
		return err
	}

	if alias, ok := expAlias[*exp]; ok {
		*exp = alias
	}
	switch *exp {
	case "all", "table1", "table2", "fig3", "fig4", "fig5", "table3", "fig6", "fig7", "fig8", "ablate":
	default:
		return usagef("unknown experiment %q (want all, table1, table2, fig3[a|b], fig4[a|b|c], fig5, table3, fig6, fig7, fig8, or ablate)", *exp)
	}
	is := func(name string) bool { return *exp == "all" || *exp == name }
	// The record pass is a suite run matrix too.
	suite := *profileRecord != "" || is("fig3") || is("fig4") || is("fig5") || is("table3")

	var backend *core.BackendSpec
	if *backendSpec != "" {
		spec, err := core.ParseBackendSpec(*backendSpec)
		if err != nil {
			return usageError(err.Error())
		}
		backend = &spec
	}
	var faults *fault.Profile
	if *faultSpec != "" {
		prof, err := fault.ParseSpec(*faultSpec)
		if err != nil {
			return usageError(err.Error())
		}
		faults = &prof
	}
	var classes []disk.Class
	if *qosSpec != "" {
		if classes, err = bench.ParseClasses(*qosSpec); err != nil {
			return usageError(err.Error())
		}
	}
	if !suite && !set["tenants"] && !*explain {
		if err := conflict("-%s applies to the NAS suite experiments (all, fig3, fig4, fig5, table3), not -exp "+*exp,
			"backend", "faults", "profile-use"); err != nil {
			return err
		}
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
	}
	if *memProfile != "" {
		defer func() {
			runtime.GC() // flush recently-freed objects out of the profile
			if werr := writeFile(*memProfile, pprof.WriteHeapProfile); err == nil {
				err = werr
			}
		}()
	}

	if *explain {
		return bench.ExplainFastPath(w, *scale)
	}

	var trace *obs.Trace
	if *tracePath != "" {
		trace = obs.NewTrace()
	}
	var metrics *obs.Registry
	if *metricsPath != "" {
		metrics = obs.NewRegistry()
	}
	runner := bench.Runner{Parallelism: *parallel, Timeout: *timeout, Trace: trace, Metrics: metrics}
	if *progress {
		runner.Progress = func(p bench.Progress) {
			status := "ok"
			switch {
			case p.Job.TimedOut:
				status = "TIMEOUT"
			case p.Job.Err != nil:
				status = "ERROR"
			}
			fmt.Fprintf(stderr, "oocbench: [%3d/%3d] %-16s %8.2fs  %s\n",
				p.Done, p.Total, p.Job.Label, p.Job.Wall.Seconds(), status)
		}
	}
	// A backend or a fault profile is an overlay on every suite run.
	opts := bench.SuiteOptions{Scale: *scale, Ratio: *ratio, WithNoRT: true,
		ConfigMutator: func(c *core.Config) { c.Backend, c.Faults = backend, faults }}

	switch {
	case *tenants > 0:
		err = bench.Tenants(w, bench.TenantOptions{Tenants: *tenants, Classes: classes, Scale: *scale, Seed: *seed,
			Backend: backend, Faults: faults, Trace: trace, Metrics: metrics})
	case *profileRecord != "":
		err = recordProfiles(ctx, w, *profileRecord, runner, opts)
	default:
		if *profileUse != "" {
			data, err := os.ReadFile(*profileUse)
			if err != nil {
				return err
			}
			if opts.ProfileUse, err = profile.Unmarshal(data); err != nil {
				return err
			}
		}
		err = experiments(ctx, w, is, suite, int64(*memMB*(1<<20)), runner, opts)
	}
	if err == nil && trace != nil {
		err = writeFile(*tracePath, trace.WriteJSON)
	}
	if err == nil && metrics != nil {
		err = writeFile(*metricsPath, metrics.WriteJSON)
	}
	return err
}

// recordProfiles is pass 1 of the two-pass mode: it records every NAS
// app once and writes the artifact to path.
func recordProfiles(ctx context.Context, w io.Writer, path string, r bench.Runner, opts bench.SuiteOptions) error {
	fmt.Fprintln(w, "recording NAS execution profiles (pass 1, original configuration)...")
	profs, err := bench.RecordProfiles(ctx, r, opts)
	if err != nil {
		return err
	}
	data, err := profile.Marshal(profs)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %d kernel profiles to %s\n", len(profs.Kernels), path)
	return nil
}

// experiments prints the selected tables and figures in the paper's
// order; is reports whether an experiment is selected and suite whether
// any selected one needs the NAS suite results.
func experiments(ctx context.Context, w io.Writer, is func(string) bool, suite bool, memBytes int64, r bench.Runner, opts bench.SuiteOptions) error {
	if is("table1") {
		bench.Table1(w, hw.Default())
		fmt.Fprintln(w)
	}
	if is("table2") {
		bench.Table2(w, opts.Scale)
		fmt.Fprintln(w)
	}
	if suite {
		fmt.Fprintln(w, "running the NAS suite (original, prefetching, and no-run-time-layer)...")
		rs, err := bench.RunSuiteContext(ctx, r, opts)
		if err != nil {
			return err
		}
		fmt.Fprintln(w)
		for _, fig := range []struct {
			name  string
			print func(io.Writer, []*bench.AppResult)
		}{{"fig3", bench.Fig3}, {"fig4", bench.Fig4}, {"fig5", bench.Fig5}, {"table3", bench.Table3}} {
			if is(fig.name) {
				fig.print(w, rs)
				fmt.Fprintln(w)
			}
		}
	}
	for _, fig := range []struct {
		name string
		run  func() error
	}{
		{"fig6", func() error { return bench.Fig6Context(ctx, w, opts.Scale, r) }},
		{"fig7", func() error { return bench.Fig7Context(ctx, w, opts.Scale, r) }},
		{"fig8", func() error { return bench.Fig8Context(ctx, w, memBytes, r) }},
	} {
		if is(fig.name) {
			if err := fig.run(); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
	}
	if is("ablate") {
		return bench.AblateAllContext(ctx, w, opts.Scale, r)
	}
	return nil
}

// writeFile creates path and streams write into it, reporting the first
// error of create/write/close.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
