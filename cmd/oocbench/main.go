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
// -mem sets the Figure 8 machine memory in MB.
//
// Experiment runs fan out across a worker pool: -parallel sets its size
// (0 = GOMAXPROCS), -timeout bounds each simulated run's wall-clock
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
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"

	oocp "repro"
)

// expAlias maps sub-figure names (as DESIGN.md's experiment index uses)
// to the experiment that regenerates them.
var expAlias = map[string]string{
	"fig3a": "fig3", "fig3b": "fig3",
	"fig4a": "fig4", "fig4b": "fig4", "fig4c": "fig4",
}

func main() {
	exp := flag.String("exp", "all", "experiment to run (all, table1, table2, fig3, fig4, fig5, table3, fig6, fig7, fig8, ablate)")
	scale := flag.Float64("scale", 1.0, "problem-size multiplier")
	ratio := flag.Float64("ratio", 0, "data:memory ratio (0 = per-app standard)")
	memMB := flag.Float64("mem", 6, "Figure 8 machine memory, MB")
	parallel := flag.Int("parallel", 0, "experiment worker-pool size (0 = GOMAXPROCS)")
	timeout := flag.Duration("timeout", 0, "per-run wall-clock timeout (0 = none)")
	progress := flag.Bool("progress", false, "report per-run progress on stderr")
	backendSpec := flag.String("backend", "", `storage backend for suite runs ("nvme", "tier=farmem,rtt=40us", ...)`)
	faultSpec := flag.String("faults", "", `fault profile for suite runs ("brownout", "profile=chaos,seed=7", ...)`)
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON timeline to this file")
	metricsPath := flag.String("metrics", "", "write a flat JSON metrics snapshot to this file")
	profileRecord := flag.String("profile-record", "", "record NAS execution profiles (pass 1) into FILE, then exit")
	profileUse := flag.String("profile-use", "", "guide suite prefetching runs with a recorded profile artifact (pass 2)")
	tenants := flag.Int("tenants", 0, "run the multi-tenant service benchmark with N tenants sharing one pool")
	qosSpec := flag.String("qos", "", `per-tenant QoS classes for -tenants ("gold,silver,be", cycled)`)
	seed := flag.Uint64("seed", 1, "deterministic scheduling seed for -tenants")
	explain := flag.Bool("explain-fastpath", false, "print each NAS loop's bytecode driver (page-run, with its absorbed-loop unroll count, or kernel) and fallback reason, then exit")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	flag.Parse()

	usage := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "oocbench: "+format+"\n", args...)
		flag.Usage()
		os.Exit(2)
	}
	// The zero defaults mean "pick for me" (GOMAXPROCS workers, no
	// timeout); an explicit non-positive pool or negative timeout is a
	// mistake and must not silently run nothing.
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) {
		set[f.Name] = true
		switch f.Name {
		case "parallel":
			if *parallel <= 0 {
				usage("-parallel must be positive, got %d", *parallel)
			}
		case "timeout":
			if *timeout < 0 {
				usage("-timeout must not be negative, got %v", *timeout)
			}
		case "scale":
			if *scale <= 0 {
				usage("-scale must be positive, got %g", *scale)
			}
		case "tenants":
			if *tenants <= 0 {
				usage("-tenants must be positive, got %d", *tenants)
			}
		}
	})
	if *profileRecord != "" && *profileUse != "" {
		usage("-profile-record and -profile-use are mutually exclusive: record pass 1, then run pass 2")
	}
	if *profileRecord != "" {
		// The record pass is its own run matrix; the experiment
		// selection has nothing to select.
		for _, name := range []string{"exp", "mem", "explain-fastpath"} {
			if set[name] {
				usage("-%s does not apply to -profile-record", name)
			}
		}
	}
	if set["tenants"] {
		// The tenant service is one deterministic simulation; the run
		// matrix and experiment-selection flags have nothing to select.
		for _, name := range []string{"exp", "ratio", "mem", "parallel", "timeout", "progress", "explain-fastpath", "profile-record", "profile-use"} {
			if set[name] {
				usage("-%s does not apply to the -tenants service benchmark", name)
			}
		}
	} else {
		for _, name := range []string{"qos", "seed"} {
			if set[name] {
				usage("-%s requires -tenants", name)
			}
		}
	}

	if alias, ok := expAlias[*exp]; ok {
		*exp = alias
	}
	switch *exp {
	case "all", "table1", "table2", "fig3", "fig4", "fig5", "table3", "fig6", "fig7", "fig8", "ablate":
	default:
		usage("unknown experiment %q (want all, table1, table2, fig3[a|b], fig4[a|b|c], fig5, table3, fig6, fig7, fig8, or ablate)", *exp)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	fail := func(err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "oocbench:", err)
			os.Exit(1)
		}
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		fail(err)
		fail(pprof.StartCPUProfile(f))
		defer func() {
			pprof.StopCPUProfile()
			fail(f.Close())
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			fail(err)
			runtime.GC() // flush recently-freed objects out of the profile
			fail(pprof.WriteHeapProfile(f))
			fail(f.Close())
		}()
	}

	if *explain {
		fail(oocp.ExplainFastPath(os.Stdout, *scale))
		return
	}

	if *tenants > 0 {
		opts := oocp.TenantOptions{Tenants: *tenants, Scale: *scale, Seed: *seed}
		if *qosSpec != "" {
			classes, err := oocp.ParseQoSClasses(*qosSpec)
			if err != nil {
				usage("%v", err)
			}
			opts.Classes = classes
		}
		if *backendSpec != "" {
			spec, err := oocp.ParseBackendSpec(*backendSpec)
			if err != nil {
				usage("%v", err)
			}
			opts.Backend = &spec
		}
		if *faultSpec != "" {
			prof, err := oocp.ParseFaultSpec(*faultSpec)
			if err != nil {
				usage("%v", err)
			}
			opts.Faults = &prof
		}
		if *tracePath != "" {
			opts.Trace = oocp.NewTrace()
		}
		if *metricsPath != "" {
			opts.Metrics = oocp.NewMetrics()
		}
		fail(oocp.Tenants(os.Stdout, opts))
		if opts.Trace != nil {
			fail(writeFile(*tracePath, opts.Trace.WriteJSON))
		}
		if opts.Metrics != nil {
			fail(writeFile(*metricsPath, opts.Metrics.WriteJSON))
		}
		return
	}

	var progressFn oocp.ProgressFunc
	if *progress {
		progressFn = func(p oocp.Progress) {
			status := "ok"
			switch {
			case p.Job.TimedOut:
				status = "TIMEOUT"
			case p.Job.Err != nil:
				status = "ERROR"
			}
			fmt.Fprintf(os.Stderr, "oocbench: [%3d/%3d] %-16s %8.2fs  %s\n",
				p.Done, p.Total, p.Job.Label, p.Job.Wall.Seconds(), status)
		}
	}
	var trace *oocp.Trace
	if *tracePath != "" {
		trace = oocp.NewTrace()
	}
	var metrics *oocp.Metrics
	if *metricsPath != "" {
		metrics = oocp.NewMetrics()
	}
	runner := oocp.Runner{Parallelism: *parallel, Timeout: *timeout, Progress: progressFn,
		Trace: trace, Metrics: metrics}

	w := os.Stdout

	needSuite := func() bool {
		if *profileRecord != "" {
			return true // the record pass is a suite run matrix
		}
		switch *exp {
		case "all", "fig3", "fig4", "fig5", "table3":
			return true
		}
		return false
	}

	var backend *oocp.BackendSpec
	if *backendSpec != "" {
		spec, err := oocp.ParseBackendSpec(*backendSpec)
		if err != nil {
			usage("%v", err)
		}
		if !needSuite() {
			usage("-backend applies to the NAS suite experiments (all, fig3, fig4, fig5, table3), not -exp %s", *exp)
		}
		backend = &spec
	}

	var faults *oocp.FaultProfile
	if *faultSpec != "" {
		prof, err := oocp.ParseFaultSpec(*faultSpec)
		if err != nil {
			usage("%v", err)
		}
		if !needSuite() {
			usage("-faults applies to the NAS suite experiments (all, fig3, fig4, fig5, table3), not -exp %s", *exp)
		}
		faults = &prof
	}

	if *profileRecord != "" {
		fmt.Fprintln(w, "recording NAS execution profiles (pass 1, original configuration)...")
		profs, err := oocp.RecordProfiles(ctx, oocp.SuiteOptions{
			Scale:       *scale,
			Ratio:       *ratio,
			Parallelism: *parallel,
			Timeout:     *timeout,
			Progress:    progressFn,
			Trace:       trace,
			Metrics:     metrics,
			Faults:      faults,
			Backend:     backend,
		})
		fail(err)
		data, err := oocp.MarshalProfiles(profs)
		fail(err)
		fail(os.WriteFile(*profileRecord, data, 0o644))
		fmt.Fprintf(w, "wrote %d kernel profiles to %s\n", len(profs.Kernels), *profileRecord)
		if trace != nil {
			fail(writeFile(*tracePath, trace.WriteJSON))
		}
		if metrics != nil {
			fail(writeFile(*metricsPath, metrics.WriteJSON))
		}
		return
	}

	var profiles *oocp.ProfileSet
	if *profileUse != "" {
		if !needSuite() {
			usage("-profile-use applies to the NAS suite experiments (all, fig3, fig4, fig5, table3), not -exp %s", *exp)
		}
		data, err := os.ReadFile(*profileUse)
		fail(err)
		profiles, err = oocp.UnmarshalProfiles(data)
		fail(err)
	}

	if *exp == "all" || *exp == "table1" {
		oocp.Table1(w)
		fmt.Fprintln(w)
	}
	if *exp == "all" || *exp == "table2" {
		oocp.Table2(w, *scale)
		fmt.Fprintln(w)
	}
	if needSuite() {
		fmt.Fprintln(w, "running the NAS suite (original, prefetching, and no-run-time-layer)...")
		rs, err := oocp.RunSuiteContext(ctx, oocp.SuiteOptions{
			Scale:       *scale,
			Ratio:       *ratio,
			WithNoRT:    true,
			Parallelism: *parallel,
			Timeout:     *timeout,
			Progress:    progressFn,
			Trace:       trace,
			Metrics:     metrics,
			Faults:      faults,
			Backend:     backend,
			ProfileUse:  profiles,
		})
		fail(err)
		fmt.Fprintln(w)
		if *exp == "all" || *exp == "fig3" {
			oocp.Fig3(w, rs)
			fmt.Fprintln(w)
		}
		if *exp == "all" || *exp == "fig4" {
			oocp.Fig4(w, rs)
			fmt.Fprintln(w)
		}
		if *exp == "all" || *exp == "fig5" {
			oocp.Fig5(w, rs)
			fmt.Fprintln(w)
		}
		if *exp == "all" || *exp == "table3" {
			oocp.Table3(w, rs)
			fmt.Fprintln(w)
		}
	}
	if *exp == "all" || *exp == "fig6" {
		fail(oocp.Fig6Context(ctx, w, *scale, runner))
		fmt.Fprintln(w)
	}
	if *exp == "all" || *exp == "fig7" {
		fail(oocp.Fig7Context(ctx, w, *scale, runner))
		fmt.Fprintln(w)
	}
	if *exp == "all" || *exp == "fig8" {
		fail(oocp.Fig8Context(ctx, w, int64(*memMB*(1<<20)), runner))
		fmt.Fprintln(w)
	}
	if *exp == "all" || *exp == "ablate" {
		fail(oocp.AblateAllContext(ctx, w, *scale, runner))
	}

	if trace != nil {
		fail(writeFile(*tracePath, trace.WriteJSON))
	}
	if metrics != nil {
		fail(writeFile(*metricsPath, metrics.WriteJSON))
	}
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
