package bench

import (
	"context"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/nas"
	"repro/internal/sim"
)

// runAppJob is RunAppContext shaped for use inside a Runner job: the
// enclosing pool supplies the parallelism, so the app's own variants run
// serially. The pool's observability sinks flow into the runs, with
// label ("<app>/<case>") keeping each case's traces and metrics apart.
func runAppJob(ctx context.Context, r Runner, label string, app *nas.App, scale, ratio float64, mutate func(*core.Config)) (*AppResult, error) {
	return RunAppContext(ctx, app, RunOptions{
		Scale:         scale,
		Ratio:         ratio,
		Parallelism:   1,
		ConfigMutator: mutate,
		Trace:         r.Trace,
		Metrics:       r.Metrics,
		Label:         label,
	})
}

// Fig6Context reproduces the in-core experiments: data sets a fraction
// of memory, cold- and warm-started, original vs prefetching, normalized
// to the original cold-started case. Every (app, cold/warm) pair is an
// independent job; output is printed in app order after all jobs finish,
// so it is identical to a serial run.
func Fig6Context(ctx context.Context, w io.Writer, scale float64, r Runner) error {
	const ratio = 0.3
	apps := nas.Apps()
	type pair struct{ cold, warm *AppResult }
	out := make([]pair, len(apps))
	var jobs []Job
	for i, app := range apps {
		jobs = append(jobs,
			Job{Label: app.Name + "/cold", Run: func(ctx context.Context) error {
				res, err := runAppJob(ctx, r, app.Name+"/cold", app, scale, ratio, nil)
				out[i].cold = res
				return err
			}},
			Job{Label: app.Name + "/warm", Run: func(ctx context.Context) error {
				res, err := runAppJob(ctx, r, app.Name+"/warm", app, scale, ratio, func(cfg *core.Config) {
					cfg.WarmStart = true
				})
				out[i].warm = res
				return err
			}})
	}
	if _, err := r.Run(ctx, jobs); err != nil {
		return err
	}

	fmt.Fprintln(w, "Figure 6: In-core problem sizes (data ≈ 30% of memory; 100 = original cold)")
	fmt.Fprintln(w, "---------------------------------------------------------------------------")
	fmt.Fprintf(w, "  %-6s %10s %10s %10s %10s\n", "app", "O-cold", "P-cold", "O-warm", "P-warm")
	for i, app := range apps {
		cold, warm := out[i].cold, out[i].warm
		base := float64(cold.O.Times.Total())
		pct := func(t sim.Time) float64 { return 100 * float64(t) / base }
		fmt.Fprintf(w, "  %-6s %9.1f%% %9.1f%% %9.1f%% %9.1f%%\n", app.Name,
			100.0, pct(cold.P.Times.Total()), pct(warm.O.Times.Total()), pct(warm.P.Times.Total()))
	}
	fmt.Fprintln(w, "  (paper shape: warm-started prefetching pays pure overhead; cold-started")
	fmt.Fprintln(w, "   prefetching can still win by hiding cold faults)")
	return nil
}

// Fig7Context reproduces the larger out-of-core sizes: three
// applications at data ≈ 4–10× memory, where speedups grow slightly
// because there is more latency to hide. Each case's standard-size and
// larger-size runs are independent jobs.
func Fig7Context(ctx context.Context, w io.Writer, scale float64, r Runner) error {
	cases := []struct {
		name  string
		ratio float64
	}{
		{"MGRID", 10}, {"BUK", 4}, {"EMBAR", 6},
	}
	type pair struct{ std, big *AppResult }
	out := make([]pair, len(cases))
	var jobs []Job
	for i, c := range cases {
		app := nas.ByName(c.name)
		jobs = append(jobs,
			Job{Label: c.name + "/std", Run: func(ctx context.Context) error {
				res, err := runAppJob(ctx, r, c.name+"/std", app, scale, 0, nil)
				out[i].std = res
				return err
			}},
			// The paper grows the problem on a fixed machine: scale the
			// data up by ratio/standard-ratio so memory stays at the
			// standard size.
			Job{Label: c.name + "/big", Run: func(ctx context.Context) error {
				res, err := runAppJob(ctx, r, c.name+"/big", app, scale*c.ratio/app.Ratio(), c.ratio, nil)
				out[i].big = res
				return err
			}})
	}
	if _, err := r.Run(ctx, jobs); err != nil {
		return err
	}

	fmt.Fprintln(w, "Figure 7: Larger out-of-core problem sizes")
	fmt.Fprintln(w, "------------------------------------------")
	fmt.Fprintf(w, "  %-6s %8s %12s %12s %9s\n", "app", "ratio", "O", "P", "speedup")
	for i, c := range cases {
		std, big := out[i].std, out[i].big
		fmt.Fprintf(w, "  %-6s %6.1fx data %5.1f MB %12v %12v %8.2fx   (standard %.1fx: %.2fx)\n",
			c.name, c.ratio, float64(big.DataBytes)/(1<<20), big.O.Elapsed, big.P.Elapsed, big.Speedup(),
			nas.ByName(c.name).Ratio(), std.Speedup())
	}
	fmt.Fprintln(w, "  (paper shape: the speedup at the larger size is at least as large as at")
	fmt.Fprintln(w, "   the standard size — there is more I/O latency to hide)")
	return nil
}

// Fig8Point is one problem size of the BUK case study.
type Fig8Point struct {
	DataBytes int64
	Ratio     float64 // data : memory
	O, P      sim.Time
}

// Fig8SweepContext runs BUK across problem sizes around the memory cliff
// on a fixed-size machine (the case-study methodology of §4.3.3). Every
// problem size is an independent job, and points come back in sweep
// order.
func Fig8SweepContext(ctx context.Context, memBytes int64, scales []float64, r Runner) ([]Fig8Point, error) {
	app := nas.ByName("BUK")
	out := make([]Fig8Point, len(scales))
	var jobs []Job
	for i, s := range scales {
		label := fmt.Sprintf("BUK/x%g", s)
		jobs = append(jobs, Job{
			Label: label,
			Run: func(ctx context.Context) error {
				prog := app.Build(s)
				ps := hw.Default().PageSize
				if err := prog.Resolve(ps); err != nil {
					return err
				}
				data := nas.DataBytes(prog, ps)
				machine := hw.Scaled(memBytes)

				run := func(prefetch bool) (sim.Time, error) {
					cfg := core.DefaultConfig(machine)
					cfg.Prefetch = prefetch
					cfg.Seed = app.Seed
					tag := label + "/O"
					if prefetch {
						tag = label + "/P"
					}
					cfg.Trace = r.Trace
					cfg.TraceName = tag
					p := app.Build(s)
					res, err := core.RunContext(ctx, p, cfg)
					if err != nil {
						return 0, err
					}
					if err := app.Check(p, res.VM, res.Env); err != nil {
						return 0, err
					}
					if r.Metrics != nil {
						r.Metrics.Merge(tag+"/", res.Metrics)
					}
					return res.Times.Total(), nil
				}
				o, err := run(false)
				if err != nil {
					return err
				}
				p, err := run(true)
				if err != nil {
					return err
				}
				out[i] = Fig8Point{
					DataBytes: data,
					Ratio:     float64(data) / float64(memBytes),
					O:         o,
					P:         p,
				}
				return nil
			},
		})
	}
	if _, err := r.Run(ctx, jobs); err != nil {
		return nil, err
	}
	return out, nil
}

// Fig8Context prints the BUK case study: execution time across problem
// sizes on a fixed-memory machine. The original version shows a
// discontinuity at the memory size; the prefetching version keeps growing
// linearly.
func Fig8Context(ctx context.Context, w io.Writer, memBytes int64, r Runner) error {
	fmt.Fprintf(w, "Figure 8: BUK across problem sizes (machine memory fixed at %.1f MB)\n",
		float64(memBytes)/(1<<20))
	fmt.Fprintln(w, "----------------------------------------------------------------------")
	fmt.Fprintf(w, "  %10s %8s %12s %12s %9s\n", "data", "ratio", "O", "P", "speedup")
	pts, err := Fig8SweepContext(ctx, memBytes, []float64{0.125, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 3.0}, r)
	if err != nil {
		return err
	}
	for _, pt := range pts {
		fmt.Fprintf(w, "  %7.1f MB %7.2fx %12v %12v %8.2fx\n",
			float64(pt.DataBytes)/(1<<20), pt.Ratio, pt.O, pt.P,
			float64(pt.O)/float64(pt.P))
	}
	fmt.Fprintln(w, "  (paper shape: O suffers a discontinuity once the problem no longer fits")
	fmt.Fprintln(w, "   in memory; P keeps growing roughly linearly and wins at every size)")
	return nil
}
