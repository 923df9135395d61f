package bench

import (
	"context"
	"io"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/nas"
)

// testScale is used for the cheaper single-app tests; the full-suite
// shape tests run at the paper's standard scale, where its claims live.
const testScale = 0.35

// suiteScale is the problem scale for the cached full-suite run.
const suiteScale = 1.0

// suite runs the full suite once per test binary (it is the expensive
// part of this package's tests).
var suiteCache []*AppResult

func suite(t *testing.T) []*AppResult {
	t.Helper()
	if testing.Short() {
		t.Skip("suite shapes are not short")
	}
	if suiteCache == nil {
		rs, err := RunSuiteContext(context.Background(), Runner{}, SuiteOptions{Scale: suiteScale, WithNoRT: true})
		if err != nil {
			t.Fatal(err)
		}
		suiteCache = rs
	}
	return suiteCache
}

// The headline claim: prefetching speeds up every application in the
// suite, and APPBT (the symbolic-bound victim) benefits least.
func TestPrefetchingWinsEverywhere(t *testing.T) {
	rs := suite(t)
	var worst string
	worstSpeedup := 1e9
	for _, r := range rs {
		s := r.Speedup()
		if s <= 1.0 {
			t.Errorf("%s: speedup %.2f, want > 1", r.Name, s)
		}
		if s < worstSpeedup {
			worstSpeedup, worst = s, r.Name
		}
	}
	if worst != "APPBT" {
		t.Errorf("smallest speedup is %s, want APPBT (the paper's laggard)", worst)
	}
}

// Figure 3(b): more than half the stall time eliminated for at least 7 of
// the 8 applications.
func TestStallElimination(t *testing.T) {
	rs := suite(t)
	over := 0
	for _, r := range rs {
		if r.StallEliminated() > 0.5 {
			over++
		}
	}
	if over < 7 {
		t.Errorf("only %d/8 apps eliminated >50%% of stall; the paper has 7", over)
	}
}

// Figure 4(a): coverage above 75% for every application except APPBT.
func TestCoverageShape(t *testing.T) {
	rs := suite(t)
	for _, r := range rs {
		cov := r.P.Mem.CoverageFactor()
		if r.Name == "APPBT" {
			if cov >= 0.75 {
				t.Errorf("APPBT coverage %.2f, want < 0.75 (symbolic bounds defeat the compiler)", cov)
			}
			continue
		}
		if cov < 0.75 {
			t.Errorf("%s coverage %.2f, want ≥ 0.75", r.Name, cov)
		}
	}
}

// Figure 4(b): EMBAR's analysis is perfect (≈0% unnecessary); the
// indirect-heavy applications insert mostly unnecessary prefetches that
// the run-time layer filters.
func TestUnnecessaryPrefetchShape(t *testing.T) {
	rs := suite(t)
	for _, r := range rs {
		frac := r.P.RT.UnnecessaryInsertedFrac()
		switch r.Name {
		case "EMBAR":
			if frac > 0.05 {
				t.Errorf("EMBAR unnecessary fraction %.3f, want ≈0", frac)
			}
		case "BUK", "CGM":
			if frac < 0.9 {
				t.Errorf("%s unnecessary fraction %.3f, want > 0.9", r.Name, frac)
			}
		}
	}
}

// Figure 4(c): without the run-time layer, the indirect-heavy
// applications are slower than not prefetching at all.
func TestRuntimeLayerIsEssential(t *testing.T) {
	rs := suite(t)
	for _, r := range rs {
		if r.Name == "BUK" || r.Name == "CGM" {
			if r.NoRT.Times.Total() <= r.O.Times.Total() {
				t.Errorf("%s without run-time layer (%v) should be slower than original (%v)",
					r.Name, r.NoRT.Times.Total(), r.O.Times.Total())
			}
		}
		// The layer never hurts materially, even where its filtering
		// benefit is small (EMBAR's prefetches are all necessary).
		if float64(r.P.Times.Total()) > 1.05*float64(r.NoRT.Times.Total()) {
			t.Errorf("%s: run-time layer hurt (%v vs %v)",
				r.Name, r.P.Times.Total(), r.NoRT.Times.Total())
		}
	}
}

// Figure 5: prefetching must not increase total disk requests (it only
// moves them earlier), and disk utilization must rise.
func TestDiskShape(t *testing.T) {
	rs := suite(t)
	for _, r := range rs {
		var oTotal, pTotal int64
		for _, d := range r.O.DiskStats {
			oTotal += d.RequestsTotal()
		}
		for _, d := range r.P.DiskStats {
			pTotal += d.RequestsTotal()
		}
		if float64(pTotal) > 1.15*float64(oTotal) {
			t.Errorf("%s: disk requests rose %d → %d (>15%%)", r.Name, oTotal, pTotal)
		}
		if r.P.DiskUtil <= r.O.DiskUtil {
			t.Errorf("%s: utilization did not rise (%.2f → %.2f)", r.Name, r.O.DiskUtil, r.P.DiskUtil)
		}
	}
}

// Table 3: the streaming applications (BUK, EMBAR) release pages and keep
// most of memory free; the solver applications do not.
func TestReleaseShape(t *testing.T) {
	rs := suite(t)
	for _, r := range rs {
		switch r.Name {
		case "BUK", "EMBAR":
			if r.P.Mem.ReleasedPages == 0 {
				t.Errorf("%s issued no releases", r.Name)
			}
			if r.P.AvgFree < 0.5 {
				t.Errorf("%s avg free %.2f, want > 0.5", r.Name, r.P.AvgFree)
			}
		case "APPBT", "APPLU", "CGM", "FFT":
			if r.P.AvgFree > 0.5 {
				t.Errorf("%s avg free %.2f, want < 0.5 (not a streaming app)", r.Name, r.P.AvgFree)
			}
		}
	}
}

// Renderers must produce their headers from real results.
func TestRenderers(t *testing.T) {
	rs := suite(t)
	var b strings.Builder
	Fig3(&b, rs)
	Fig4(&b, rs)
	Fig5(&b, rs)
	Table3(&b, rs)
	Table1(&b, hw.Default())
	Table2(&b, testScale)
	out := b.String()
	for _, want := range []string{
		"Figure 3(a)", "Figure 3(b)", "Figure 4(a)", "Figure 4(b)", "Figure 4(c)",
		"Figure 5", "Table 3", "Table 1", "Table 2", "speedup",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered output missing %q", want)
		}
	}
}

// Figure 8: the original version hits a cliff when the problem stops
// fitting in memory; the prefetching version stays roughly linear and
// wins at every out-of-core size.
func TestFig8Cliff(t *testing.T) {
	if testing.Short() {
		t.Skip("not short")
	}
	const mem = 3 << 20
	pts, err := Fig8SweepContext(context.Background(), mem, []float64{0.06, 0.125, 0.5, 1.0}, Runner{})
	if err != nil {
		t.Fatal(err)
	}
	// First two points are in-core, last two far out of core.
	inCore := pts[0]
	outCore := pts[len(pts)-1]
	if inCore.Ratio >= 1 || outCore.Ratio <= 1.5 {
		t.Fatalf("sweep did not straddle the memory size: %+v", pts)
	}
	// Per-byte cost of the original explodes across the cliff; the
	// prefetching version's stays within a modest factor.
	oSlope := float64(outCore.O) / float64(outCore.DataBytes) /
		(float64(inCore.O) / float64(inCore.DataBytes))
	pSlope := float64(outCore.P) / float64(outCore.DataBytes) /
		(float64(inCore.P) / float64(inCore.DataBytes))
	if oSlope < 1.3 {
		t.Errorf("original per-byte cost grew only %.2fx across the cliff, want ≥1.3x", oSlope)
	}
	if pSlope >= oSlope {
		t.Errorf("prefetching per-byte cost grew %.2fx, want below original's %.2fx", pSlope, oSlope)
	}
	if outCore.P >= outCore.O {
		t.Error("prefetching lost out of core")
	}
}

// Figure 6: warm-started in-core runs pay pure prefetch overhead; the
// result is a modest slowdown, not a win.
func TestInCoreWarmOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("not short")
	}
	rs, err := new(Runner).RunCases(context.Background(), []Case{{App: nas.ByName("EMBAR"), Scale: testScale, Ratio: 0.3,
		Config: func(cfg *core.Config) { cfg.WarmStart = true }}}, false)
	if err != nil {
		t.Fatal(err)
	}
	r := rs[0]
	slowdown := float64(r.P.Times.Total()) / float64(r.O.Times.Total())
	if slowdown < 1.0 {
		t.Errorf("warm in-core prefetching run faster than original (%.3f)? overhead missing", slowdown)
	}
	if slowdown > 1.6 {
		t.Errorf("warm in-core overhead %.2fx is implausibly large", slowdown)
	}
}

// The two-version ablation must recover APPBT's coverage.
func TestTwoVersionAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("not short")
	}
	var b strings.Builder
	if err := AblateTwoVersionContext(context.Background(), &b, testScale, Runner{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "two-version") {
		t.Fatal("ablation output malformed")
	}
	app := nas.ByName("APPBT")
	rs, err := new(Runner).RunCases(context.Background(), []Case{
		{App: app, Scale: testScale},
		{App: app, Scale: testScale, Label: "APPBT/fixed",
			Config: func(cfg *core.Config) { cfg.Options = TwoVersionOptions() }},
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	plain, fixed := rs[0], rs[1]
	if fixed.P.Mem.CoverageFactor() <= plain.P.Mem.CoverageFactor() {
		t.Errorf("two-version loops did not raise APPBT coverage (%.2f vs %.2f)",
			fixed.P.Mem.CoverageFactor(), plain.P.Mem.CoverageFactor())
	}
	if fixed.Speedup() <= plain.Speedup() {
		t.Errorf("two-version loops did not raise APPBT speedup (%.2f vs %.2f)",
			fixed.Speedup(), plain.Speedup())
	}
}

var _ = io.Discard
