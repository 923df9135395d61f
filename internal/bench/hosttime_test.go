package bench

import (
	"testing"

	"repro/internal/core"
	"repro/internal/nas"
)

// BenchmarkKernelHostTime measures the host (wall-clock) cost of one
// complete end-to-end run — compile, simulate, validate nothing — of a
// small CG proxy in the standard prefetching configuration. This is the
// figure the executor's page-run fast path exists to improve; the other
// benchmarks in the gate isolate its per-word components.
func BenchmarkKernelHostTime(b *testing.B) {
	benchHostTime(b, nas.CGM(), 0.1, 2)
}

// BenchmarkKernelHostTimeProfileUse is BenchmarkKernelHostTime in the
// two-pass mode: the profile is recorded once outside the timer, and
// every timed iteration compiles and runs with it. Guiding the compiler
// from a profile must cost no more on the host than the static
// distance model it replaces — the lookup is one map probe per
// reference site at compile time and nothing at run time.
func BenchmarkKernelHostTimeProfileUse(b *testing.B) {
	app := nas.CGM()
	const scale, ratio = 0.1, 2
	cfg, _, err := ConfigFor(app, scale, ratio)
	if err != nil {
		b.Fatal(err)
	}

	rcfg := cfg
	rcfg.Prefetch = false
	rcfg.Profile = &core.ProfileSpec{Record: true}
	rec, err := core.Run(app.Build(scale), rcfg)
	if err != nil {
		b.Fatal(err)
	}
	cfg.Profile = &core.ProfileSpec{Use: rec.Profile}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog := app.Build(scale)
		if _, err := core.Run(prog, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHostTimeNAS is the per-application host-time matrix: every
// NAS proxy end-to-end at a reduced scale, so a regression localized to
// one app's loop shapes (indirect gather, 2-D nests, branches, FFT's
// non-affine stages) shows up under its own name in the bench gate.
func BenchmarkHostTimeNAS(b *testing.B) {
	for _, app := range nas.Apps() {
		b.Run(app.Name, func(b *testing.B) {
			benchHostTime(b, app, 0.05, 0)
		})
	}
}

func benchHostTime(b *testing.B, app *nas.App, scale, ratio float64) {
	cfg, _, err := ConfigFor(app, scale, ratio)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog := app.Build(scale)
		if _, err := core.Run(prog, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
