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

// Fig6Context reproduces the in-core experiments: data sets a fraction
// of memory, cold- and warm-started, original vs prefetching, normalized
// to the original cold-started case. Output is printed in app order
// after all runs finish, so it is identical to a serial run.
func Fig6Context(ctx context.Context, w io.Writer, scale float64, r Runner) error {
	const ratio = 0.3
	apps := nas.Apps()
	var cases []Case
	for _, app := range apps {
		cases = append(cases,
			Case{App: app, Scale: scale, Ratio: ratio, Label: app.Name + "/cold"},
			Case{App: app, Scale: scale, Ratio: ratio, Label: app.Name + "/warm",
				Config: func(cfg *core.Config) { cfg.WarmStart = true }})
	}
	out, err := r.RunCases(ctx, cases, false)
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "Figure 6: In-core problem sizes (data ≈ 30% of memory; 100 = original cold)")
	fmt.Fprintln(w, "---------------------------------------------------------------------------")
	fmt.Fprintf(w, "  %-6s %10s %10s %10s %10s\n", "app", "O-cold", "P-cold", "O-warm", "P-warm")
	for i, app := range apps {
		cold, warm := out[2*i], out[2*i+1]
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
// because there is more latency to hide.
func Fig7Context(ctx context.Context, w io.Writer, scale float64, r Runner) error {
	sizes := []struct {
		name  string
		ratio float64
	}{
		{"MGRID", 10}, {"BUK", 4}, {"EMBAR", 6},
	}
	var cases []Case
	for _, c := range sizes {
		app := nas.ByName(c.name)
		cases = append(cases,
			Case{App: app, Scale: scale, Label: c.name + "/std"},
			// The paper grows the problem on a fixed machine: scale the
			// data up by ratio/standard-ratio so memory stays at the
			// standard size.
			Case{App: app, Scale: scale * c.ratio / app.Ratio(), Ratio: c.ratio, Label: c.name + "/big"})
	}
	out, err := r.RunCases(ctx, cases, false)
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "Figure 7: Larger out-of-core problem sizes")
	fmt.Fprintln(w, "------------------------------------------")
	fmt.Fprintf(w, "  %-6s %8s %12s %12s %9s\n", "app", "ratio", "O", "P", "speedup")
	for i, c := range sizes {
		std, big := out[2*i], out[2*i+1]
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
// on a fixed-size machine (the case-study methodology of §4.3.3): each
// case's overlay replaces the ratio-sized machine. Points come back in
// sweep order.
func Fig8SweepContext(ctx context.Context, memBytes int64, scales []float64, r Runner) ([]Fig8Point, error) {
	cases := make([]Case, len(scales))
	for i, s := range scales {
		cases[i] = Case{App: nas.ByName("BUK"), Scale: s, Label: fmt.Sprintf("BUK/x%g", s),
			Config: func(cfg *core.Config) { cfg.Machine = hw.Scaled(memBytes) }}
	}
	rs, err := r.RunCases(ctx, cases, false)
	if err != nil {
		return nil, err
	}
	out := make([]Fig8Point, len(rs))
	for i, a := range rs {
		out[i] = Fig8Point{
			DataBytes: a.DataBytes,
			Ratio:     float64(a.DataBytes) / float64(memBytes),
			O:         a.O.Times.Total(),
			P:         a.P.Times.Total(),
		}
	}
	return out, nil
}

// Fig8Context prints the BUK case study: execution time across problem
// sizes on a fixed-memory machine. The original version shows a
// discontinuity at the memory size; the prefetching version keeps growing
// linearly.
func Fig8Context(ctx context.Context, w io.Writer, memBytes int64, r Runner) error {
	pts, err := Fig8SweepContext(ctx, memBytes, []float64{0.125, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 3.0}, r)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Figure 8: BUK across problem sizes (machine memory fixed at %.1f MB)\n",
		float64(memBytes)/(1<<20))
	fmt.Fprintln(w, "----------------------------------------------------------------------")
	fmt.Fprintf(w, "  %10s %8s %12s %12s %9s\n", "data", "ratio", "O", "P", "speedup")
	for _, pt := range pts {
		fmt.Fprintf(w, "  %7.1f MB %7.2fx %12v %12v %8.2fx\n",
			float64(pt.DataBytes)/(1<<20), pt.Ratio, pt.O, pt.P,
			float64(pt.O)/float64(pt.P))
	}
	fmt.Fprintln(w, "  (paper shape: O suffers a discontinuity once the problem no longer fits")
	fmt.Fprintln(w, "   in memory; P keeps growing roughly linearly and wins at every size)")
	return nil
}
