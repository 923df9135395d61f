package bench

import (
	"context"
	"fmt"
	"io"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/nas"
)

// ablatePair runs the two configurations of an A/B ablation of one app
// and returns them in (a, b) order.
func ablatePair(ctx context.Context, r Runner, app *nas.App, scale float64,
	aLabel string, aConfig func(*core.Config),
	bLabel string, bConfig func(*core.Config)) (a, b *AppResult, err error) {

	rs, err := r.RunCases(ctx, []Case{
		{App: app, Scale: scale, Label: app.Name + "/" + aLabel, Config: aConfig},
		{App: app, Scale: scale, Label: app.Name + "/" + bLabel, Config: bConfig},
	}, false)
	if err != nil {
		return nil, nil, err
	}
	return rs[0], rs[1], nil
}

// AblateTwoVersionContext runs APPBT with and without the
// two-version-loop extension (§4.1.1's proposed fix for symbolic inner
// bounds) and prints the coverage and speedup recovery.
func AblateTwoVersionContext(ctx context.Context, w io.Writer, scale float64, r Runner) error {
	plain, fixed, err := ablatePair(ctx, r, nas.ByName("APPBT"), scale,
		"plain", nil,
		"two-version", func(cfg *core.Config) { cfg.Options = TwoVersionOptions() })
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Ablation: two-version loops (the paper's proposed fix for APPBT)")
	fmt.Fprintln(w, "-----------------------------------------------------------------")
	fmt.Fprintf(w, "  %-22s %10s %10s\n", "", "coverage", "speedup")
	fmt.Fprintf(w, "  %-22s %9.1f%% %9.2fx\n", "APPBT (symbolic bm)",
		plain.P.Mem.CoverageFactor()*100, plain.Speedup())
	fmt.Fprintf(w, "  %-22s %9.1f%% %9.2fx\n", "APPBT (two-version)",
		fixed.P.Mem.CoverageFactor()*100, fixed.Speedup())
	return nil
}

// AblatePagesPerFetchContext sweeps the compiler's block-prefetch size
// on a streaming application (the paper chose 4 "arbitrarily"; this
// shows the tradeoff it embodies).
func AblatePagesPerFetchContext(ctx context.Context, w io.Writer, scale float64, r Runner) error {
	ppfs := []int64{1, 2, 4, 8, 16}
	cases := make([]Case, len(ppfs))
	for i, ppf := range ppfs {
		opts := compiler.DefaultOptions()
		opts.PagesPerFetch = ppf
		cases[i] = Case{App: nas.ByName("BUK"), Scale: scale, Label: fmt.Sprintf("BUK/ppf=%d", ppf),
			Config: func(cfg *core.Config) { cfg.Options = &opts }}
	}
	out, err := r.RunCases(ctx, cases, false)
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "Ablation: pages per block prefetch (BUK)")
	fmt.Fprintln(w, "----------------------------------------")
	fmt.Fprintf(w, "  %-6s %10s %14s %12s\n", "pages", "speedup", "pf-syscalls", "stall-elim")
	for i, ppf := range ppfs {
		res := out[i]
		fmt.Fprintf(w, "  %-6d %9.2fx %14d %11.0f%%\n",
			ppf, res.Speedup(), res.P.Mem.PrefetchCalls, res.StallEliminated()*100)
	}
	return nil
}

// AblateReleasesContext runs BUK with releases disabled, quantifying
// what the release hints buy (free memory and write-back avoidance).
func AblateReleasesContext(ctx context.Context, w io.Writer, scale float64, r Runner) error {
	with, without, err := ablatePair(ctx, r, nas.ByName("BUK"), scale,
		"releases", nil,
		"no-releases", func(cfg *core.Config) {
			opts := compiler.DefaultOptions()
			opts.Releases = false
			cfg.Options = &opts
		})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Ablation: release hints (BUK)")
	fmt.Fprintln(w, "-----------------------------")
	fmt.Fprintf(w, "  %-18s %10s %12s %10s\n", "", "speedup", "mem-free", "releases")
	fmt.Fprintf(w, "  %-18s %9.2fx %11.0f%% %10d\n", "with releases",
		with.Speedup(), with.P.AvgFree*100, with.P.Mem.ReleasedPages)
	fmt.Fprintf(w, "  %-18s %9.2fx %11.0f%% %10d\n", "without releases",
		without.Speedup(), without.P.AvgFree*100, without.P.Mem.ReleasedPages)
	return nil
}

// AblateSchedulerContext compares FCFS (the paper's configuration) with
// SCAN disk scheduling under prefetching.
func AblateSchedulerContext(ctx context.Context, w io.Writer, scale float64, r Runner) error {
	fcfs, scan, err := ablatePair(ctx, r, nas.ByName("CGM"), scale,
		"fcfs", nil,
		"elevator", func(cfg *core.Config) { cfg.Backend = &core.BackendSpec{Sched: "elevator"} })
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Ablation: disk scheduling under prefetching (CGM)")
	fmt.Fprintln(w, "-------------------------------------------------")
	fmt.Fprintf(w, "  %-10s P = %v\n", "FCFS", fcfs.P.Elapsed)
	fmt.Fprintf(w, "  %-10s P = %v\n", "elevator", scan.P.Elapsed)
	return nil
}

// AblateAllContext runs the four design-choice ablations DESIGN.md calls
// out: the two-version-loop extension, the pages-per-block-prefetch
// parameter, release hints, and disk scheduling. They print in a fixed
// order; each runs its own case list on the pool.
func AblateAllContext(ctx context.Context, w io.Writer, scale float64, r Runner) error {
	parts := []func(context.Context, io.Writer, float64, Runner) error{
		AblateTwoVersionContext,
		AblatePagesPerFetchContext,
		AblateReleasesContext,
		AblateSchedulerContext,
	}
	for i, part := range parts {
		if i > 0 {
			io.WriteString(w, "\n")
		}
		if err := part(ctx, w, scale, r); err != nil {
			return err
		}
	}
	return nil
}
