package bench

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/ir"
	"repro/internal/nas"
	"repro/internal/obs"
)

// renderAll renders every suite-derived table and figure to one string,
// so byte-identity of parallel vs serial output can be asserted.
func renderAll(rs []*AppResult) string {
	var b strings.Builder
	Fig3(&b, rs)
	Fig4(&b, rs)
	Fig5(&b, rs)
	Table3(&b, rs)
	return b.String()
}

// The tentpole guarantee: a parallel suite run is indistinguishable from
// a serial one — same values, same rendered bytes — because results are
// collected by submission index, never completion order, and every job
// owns a private deterministic simulator.
func TestSuiteParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the suite twice")
	}
	const scale = 0.15
	serial, err := RunSuiteContext(context.Background(), Runner{Parallelism: 1},
		SuiteOptions{Scale: scale, WithNoRT: true})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunSuiteContext(context.Background(), Runner{Parallelism: 8},
		SuiteOptions{Scale: scale, WithNoRT: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("result count: serial %d, parallel %d", len(serial), len(parallel))
	}
	for i := range serial {
		s, p := serial[i], parallel[i]
		if s.Name != p.Name {
			t.Fatalf("order differs at %d: %s vs %s", i, s.Name, p.Name)
		}
		if s.O.Elapsed != p.O.Elapsed || s.P.Elapsed != p.P.Elapsed || s.NoRT.Elapsed != p.NoRT.Elapsed {
			t.Errorf("%s: elapsed differs (O %v/%v, P %v/%v, NoRT %v/%v)", s.Name,
				s.O.Elapsed, p.O.Elapsed, s.P.Elapsed, p.P.Elapsed, s.NoRT.Elapsed, p.NoRT.Elapsed)
		}
		if s.O.Mem.MajorFaults != p.O.Mem.MajorFaults || s.P.Mem.MajorFaults != p.P.Mem.MajorFaults {
			t.Errorf("%s: fault counts differ", s.Name)
		}
	}
	if sOut, pOut := renderAll(serial), renderAll(parallel); sOut != pOut {
		t.Errorf("rendered output differs between serial and parallel runs:\n--- serial ---\n%s\n--- parallel ---\n%s", sOut, pOut)
	}
}

// Cancelling mid-suite must abort in-flight simulated runs and return
// ctx.Err() instead of finishing the matrix.
func TestSuiteCancellationMidRun(t *testing.T) {
	if testing.Short() {
		t.Skip("not short")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel as soon as the first job completes: the remaining jobs are
	// either in flight (aborted by the clock interrupt) or never start.
	completions := 0
	r := Runner{Parallelism: 2, Progress: func(Progress) {
		completions++
		cancel()
	}}
	_, err := RunSuiteContext(ctx, r, SuiteOptions{Scale: 0.5, WithNoRT: true})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if completions >= 24 {
		t.Fatal("suite ran to completion despite cancellation")
	}
}

// A suite without the no-run-time-layer variant is two pool jobs per app,
// each reported once, on a pool of four.
func TestRunSuiteContextOptions(t *testing.T) {
	if testing.Short() {
		t.Skip("not short")
	}
	var events int
	r := Runner{Parallelism: 4, Progress: func(Progress) { events++ }}
	rs, err := RunSuiteContext(context.Background(), r, SuiteOptions{Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 8 {
		t.Fatalf("suite returned %d apps", len(rs))
	}
	if events != 16 { // 8 apps × (O, P)
		t.Fatalf("progress events = %d, want 16", events)
	}
}

// A pre-cancelled context returns immediately with ctx.Err() and runs
// nothing.
func TestSuitePreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	started := 0
	_, err := RunSuiteContext(ctx, Runner{Progress: func(Progress) { started++ }}, SuiteOptions{Scale: 0.1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if started != 0 {
		t.Fatalf("%d jobs ran under a pre-cancelled context", started)
	}
}

// A job that exceeds its own per-job timeout fails alone: siblings keep
// running to completion, and the runner reports the timeout.
func TestRunnerTimeoutDoesNotPoisonSiblings(t *testing.T) {
	// One worker: job c starts strictly after the hung job has already
	// timed out, so it proves the timeout cancelled nothing but its own
	// job.
	r := &Runner{Parallelism: 1, Timeout: 20 * time.Millisecond}
	ran := make([]bool, 3)
	jobs := []Job{
		{Label: "a", Run: func(ctx context.Context) error { ran[0] = true; return nil }},
		{Label: "hang", Run: func(ctx context.Context) error { <-ctx.Done(); return ctx.Err() }},
		{Label: "c", Run: func(ctx context.Context) error {
			select {
			case <-ctx.Done():
				return ctx.Err()
			default:
			}
			ran[2] = true
			return nil
		}},
	}
	metrics, err := r.Run(context.Background(), jobs)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want the hung job's DeadlineExceeded", err)
	}
	if !ran[0] || !ran[2] {
		t.Fatalf("siblings were poisoned by the timeout: ran = %v", ran)
	}
	if !metrics[1].TimedOut {
		t.Fatal("hung job not marked TimedOut")
	}
	if metrics[0].Err != nil || metrics[2].Err != nil {
		t.Fatalf("sibling errors: %v / %v", metrics[0].Err, metrics[2].Err)
	}
	if metrics[1].Attempts != 1 || metrics[0].Attempts != 1 {
		t.Fatalf("attempts: %+v", metrics)
	}
}

// A per-run timeout on a real simulated run aborts that run with
// DeadlineExceeded threaded out of the event loop.
func TestRunAppTimeoutAborts(t *testing.T) {
	if testing.Short() {
		t.Skip("not short")
	}
	r := Runner{Timeout: time.Millisecond}
	_, err := r.RunCases(context.Background(), []Case{{App: nas.ByName("EMBAR"), Scale: 0.5}}, false)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// A real (non-timeout) job failure cancels outstanding jobs and is the
// error the runner reports, even when a cancelled sibling finishes
// first.
func TestRunnerFailFastReportsRealError(t *testing.T) {
	boom := errors.New("boom")
	r := &Runner{Parallelism: 2}
	jobs := []Job{
		{Label: "hang", Run: func(ctx context.Context) error { <-ctx.Done(); return ctx.Err() }},
		{Label: "fail", Run: func(ctx context.Context) error { return boom }},
	}
	metrics, err := r.Run(context.Background(), jobs)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the real failure", err)
	}
	if !errors.Is(metrics[0].Err, context.Canceled) {
		t.Fatalf("hung job err = %v, want Canceled via fail-fast", metrics[0].Err)
	}
}

// Progress reports every completion exactly once with a consistent
// total.
func TestRunnerProgressCounts(t *testing.T) {
	var got []Progress
	r := &Runner{Parallelism: 4, Progress: func(p Progress) { got = append(got, p) }}
	var jobs []Job
	for i := 0; i < 10; i++ {
		jobs = append(jobs, Job{Label: fmt.Sprintf("j%d", i), Run: func(ctx context.Context) error { return nil }})
	}
	if _, err := r.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("%d progress events, want 10", len(got))
	}
	for i, p := range got {
		if p.Done != i+1 || p.Total != 10 {
			t.Fatalf("progress %d = %+v", i, p)
		}
	}
}

// Concurrent suite runs under a fault profile (run under -race in CI):
// every job injects faults and merges its counters into one shared
// registry, and the per-run "<app>/<variant>/" metric prefixes must not
// interleave — each prefix carries exactly its own run's deterministic
// values, so two parallel runs snapshot identically (modulo the pool's
// wall-clock tally) and each prefix's fault counters match the result
// that run returned.
func TestRunnerFaultProfilesConcurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the suite twice")
	}
	prof, ok := fault.ProfileByName("chaos")
	if !ok {
		t.Fatal("chaos profile missing")
	}
	prof.Seed = 11
	run := func() (obs.Snapshot, []*AppResult) {
		reg := obs.NewRegistry()
		rs, err := RunSuiteContext(context.Background(), Runner{Parallelism: 8, Metrics: reg}, SuiteOptions{
			Scale:         0.15,
			ConfigMutator: func(c *core.Config) { c.Faults = &prof },
		})
		if err != nil {
			t.Fatal(err)
		}
		return reg.Snapshot(), rs
	}
	s1, r1 := run()
	s2, _ := run()

	// Determinism across parallel runs: identical counter sets and values
	// except the pool's wall-clock tally.
	if len(s1.Counters) != len(s2.Counters) {
		t.Fatalf("counter sets differ: %d vs %d", len(s1.Counters), len(s2.Counters))
	}
	for name, v1 := range s1.Counters {
		if name == "runner.wall_ns" {
			continue
		}
		if v2, ok := s2.Counters[name]; !ok || v1 != v2 {
			t.Errorf("%s: %d vs %d across identical parallel runs", name, v1, v2)
		}
	}

	// Prefix integrity: each run's fault counters landed under its own
	// prefix with exactly the values that run reported.
	for _, a := range r1 {
		if a.P.Faults.Total() == 0 {
			t.Errorf("%s/P: chaos profile injected nothing", a.Name)
		}
		for prefix, want := range map[string]fault.Counts{
			a.Name + "/O/": a.O.Faults,
			a.Name + "/P/": a.P.Faults,
		} {
			checks := map[string]int64{
				prefix + "fault.read_errors":       want.ReadErrors,
				prefix + "fault.write_errors":      want.WriteErrors,
				prefix + "fault.slowdowns":         want.Slowdowns,
				prefix + "fault.brownout_failures": want.BrownoutFailures,
				prefix + "fault.prefetch_drops":    want.PrefetchDrops,
			}
			for name, want := range checks {
				if got := s1.Counters[name]; got != want {
					t.Errorf("%s = %d, want %d (prefix interleaved?)", name, got, want)
				}
			}
		}
	}
}

// The runner's pool counters and trace are written by every worker
// concurrently; this test (run under -race in CI) pins both the totals
// and the data-race freedom of the shared registry, which a reader
// snapshots while the jobs run.
func TestRunnerObservabilityConcurrent(t *testing.T) {
	trace := obs.NewTrace()
	reg := obs.NewRegistry()
	var work atomic.Int64
	reg.Register(&obs.Source{Prefix: "test.", Counters: []string{"work"},
		Fill: func(c []int64, _ []float64) { c[0] = work.Load() }})
	r := &Runner{Parallelism: 8, Trace: trace, Metrics: reg}
	const n = 64
	var jobs []Job
	for i := 0; i < n; i++ {
		jobs = append(jobs, Job{
			Label: fmt.Sprintf("j%d", i),
			Run: func(ctx context.Context) error {
				// Jobs also bump a field behind the shared registry and
				// read it, like concurrent suite runs merging their
				// metrics do.
				for k := 0; k < 100; k++ {
					work.Add(1)
				}
				_ = reg.Snapshot()
				return nil
			},
		})
	}
	if _, err := r.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["runner.jobs"]; got != n {
		t.Fatalf("runner.jobs = %d, want %d", got, n)
	}
	if got := snap.Counters["runner.attempts"]; got != n {
		t.Fatalf("runner.attempts = %d, want %d", got, n)
	}
	if got := snap.Counters["test.work"]; got != n*100 {
		t.Fatalf("test.work = %d, want %d", got, n*100)
	}
	if got := snap.Counters["runner.jobs_failed"]; got != 0 {
		t.Fatalf("runner.jobs_failed = %d, want 0", got)
	}

	// One "runner" process, one span per job across the worker tracks.
	var spans, workers int
	for _, e := range trace.Events() {
		switch {
		case e.Phase == 'X' && e.Cat == "job":
			spans++
		case e.Phase == 'M' && e.Name == "thread_name":
			workers++
		}
	}
	if spans != n {
		t.Fatalf("%d job spans, want %d", spans, n)
	}
	if workers != 8 {
		t.Fatalf("%d worker tracks, want 8", workers)
	}
}

// One matrix, one fan-out: every (case, variant) pair is one pool job
// labelled "<label>/<tag>", submitted case-major in variant order; a
// case is sized once by ConfigFor, its overlay applied before the
// variant's adjustment (so an overlay cannot turn an original run into a
// prefetching one), and its counters merged under its label.
func TestCaseMatrix(t *testing.T) {
	reg := obs.NewRegistry()
	var labels []string
	r := Runner{Parallelism: 1, Metrics: reg, Progress: func(p Progress) { labels = append(labels, p.Job.Label) }}
	app := nas.ByName("EMBAR")
	rs, err := r.RunCases(context.Background(), []Case{
		{App: app, Scale: 0.05},
		{App: app, Scale: 0.05, Ratio: 0.3, Label: "EMBAR/warm",
			Config: func(c *core.Config) { c.WarmStart, c.Prefetch = true, true }},
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	want := "EMBAR/O EMBAR/P EMBAR/no-rt EMBAR/warm/O EMBAR/warm/P EMBAR/warm/no-rt"
	if got := strings.Join(labels, " "); got != want {
		t.Errorf("jobs ran as %q, want %q", got, want)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["runner.jobs"]; got != 6 {
		t.Errorf("runner.jobs = %d, want 6", got)
	}
	std, warm := rs[0], rs[1]
	cfg, data, err := ConfigFor(app, 0.05, 0)
	if err != nil {
		t.Fatal(err)
	}
	if std.Machine != cfg.Machine || std.DataBytes != data || warm.DataBytes != data {
		t.Errorf("case sized to %d B on %+v, ConfigFor says %d B on %+v", std.DataBytes, std.Machine, data, cfg.Machine)
	}
	if warm.Machine.MemoryBytes <= std.Machine.MemoryBytes {
		t.Errorf("ratio 0.3 memory %d not above the standard ratio's %d", warm.Machine.MemoryBytes, std.Machine.MemoryBytes)
	}
	for _, a := range rs {
		// The run-time layer filters every hint of the warm in-core run.
		if a.O.Mem.PrefetchCalls != 0 || a.P.RT.InsertedPages == 0 || a.NoRT.Mem.PrefetchCalls == 0 {
			t.Errorf("%s: prefetch calls O %d, no-rt %d; P inserted %d pages", a.Name,
				a.O.Mem.PrefetchCalls, a.NoRT.Mem.PrefetchCalls, a.P.RT.InsertedPages)
		}
	}
	// EMBAR's standard ratio is 2: the standard case is the one-app pair
	// at scale 0.05, and prefetching wins it.
	if std.Speedup() <= 1 {
		t.Errorf("EMBAR pair speedup %.2f, want > 1", std.Speedup())
	}
	if warm.O.Mem.MajorFaults >= std.O.Mem.MajorFaults {
		t.Errorf("warm in-core run faulted %d times, the out-of-core run %d", warm.O.Mem.MajorFaults, std.O.Mem.MajorFaults)
	}
	for _, name := range []string{"EMBAR/O/vm.prefetch.calls", "EMBAR/warm/no-rt/vm.prefetch.calls"} {
		if _, ok := snap.Counters[name]; !ok {
			t.Errorf("no %s in the merged metrics", name)
		}
	}
	if got := snap.Counters["EMBAR/warm/P/vm.prefetch.calls"]; got != warm.P.Mem.PrefetchCalls {
		t.Errorf("EMBAR/warm/P/vm.prefetch.calls = %d, the run reported %d", got, warm.P.Mem.PrefetchCalls)
	}
}

// A case that cannot be sized fails before anything runs.
func TestCaseSizingError(t *testing.T) {
	ran := 0
	r := Runner{Progress: func(Progress) { ran++ }}
	bad := &nas.App{Name: "BAD", Build: func(float64) *ir.Program {
		p := ir.NewProgram("bad")
		p.NewArrayF("a", ir.DivI(ir.Int(8), ir.Int(0)))
		return p
	}}
	_, err := r.RunCases(context.Background(), []Case{{App: nas.ByName("EMBAR"), Scale: 0.05}, {App: bad}}, false)
	if err == nil || !strings.Contains(err.Error(), "not evaluable") || ran != 0 {
		t.Errorf("err = %v after %d runs, want the extent error before any run", err, ran)
	}
}
