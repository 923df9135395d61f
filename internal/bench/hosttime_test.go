package bench

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/golden"
	"repro/internal/hw"
	"repro/internal/nas"
	"repro/internal/sim"
	"repro/internal/stripefs"
)

// hostTime is one complete end-to-end run of app — compile, simulate,
// validate nothing — in its standard configuration at scale.
func hostTime(tb testing.TB, app *nas.App, scale, ratio float64) func() {
	cfg, _, err := ConfigFor(app, scale, ratio)
	if err != nil {
		tb.Fatal(err)
	}
	return func() {
		if _, err := core.Run(app.Build(scale), cfg); err != nil {
			tb.Fatal(err)
		}
	}
}

// kernelHostTime is hostTime of a small CG proxy in the standard
// prefetching configuration: the figure the executor's page-run fast path
// exists to improve; the substrate benchmarks isolate its per-word
// components.
func kernelHostTime(tb testing.TB) func() { return hostTime(tb, nas.CGM(), 0.1, 2) }

// kernelHostTimeProfileUse is kernelHostTime in the two-pass mode: the
// profile is recorded once, and every op compiles and runs with it.
// Guiding the compiler from a profile must cost no more on the host than
// the static distance model it replaces — the lookup is one map probe per
// reference site at compile time and nothing at run time.
func kernelHostTimeProfileUse(tb testing.TB) func() {
	app := nas.CGM()
	const scale, ratio = 0.1, 2
	cfg, _, err := ConfigFor(app, scale, ratio)
	if err != nil {
		tb.Fatal(err)
	}
	rcfg := cfg
	rcfg.Prefetch = false
	rcfg.Profile = &core.ProfileSpec{Record: true}
	rec, err := core.Run(app.Build(scale), rcfg)
	if err != nil {
		tb.Fatal(err)
	}
	cfg.Profile = &core.ProfileSpec{Use: rec.Profile}
	return func() {
		if _, err := core.Run(app.Build(scale), cfg); err != nil {
			tb.Fatal(err)
		}
	}
}

func bench(b *testing.B, op func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

func BenchmarkKernelHostTime(b *testing.B)           { bench(b, kernelHostTime(b)) }
func BenchmarkKernelHostTimeProfileUse(b *testing.B) { bench(b, kernelHostTimeProfileUse(b)) }

// BenchmarkHostTimeNAS is the per-application host-time matrix: every
// NAS proxy end-to-end at a reduced scale, so a regression localized to
// one app's loop shapes (indirect gather, 2-D nests, branches, FFT's
// non-affine stages) shows up under its own name.
func BenchmarkHostTimeNAS(b *testing.B) {
	for _, app := range nas.Apps() {
		b.Run(app.Name, func(b *testing.B) { bench(b, hostTime(b, app, 0.05, 0)) })
	}
}

// TestBenchmarkAllocs holds what one op of each benchmark of this package
// allocates to testdata/allocs.golden. A run takes its frame slab and its
// file system's free lists from what the last run put back. The frame slab
// comes back whole, but the page buffers that hold a run's output stay
// with its result, so each run cuts new ones from 64-page slabs and hands
// the next run a slab tail whose length cycles from run to run; each round
// therefore starts with the kept free lists taken by a throw-away file
// system. A NAS run seeds nothing after its App's first: it shares the
// App's image of the data set. A run allocates the same with or without a
// collection before it, but CompileFlow's rounds read 2157, 2159, 2157
// when other test binaries run alongside (make repin, 3 of 3 times; cause
// not traced), so its rounds start with the heap collected.
func TestBenchmarkAllocs(t *testing.T) {
	rec := golden.OpenAllocs(t, "testdata/allocs.golden")
	defer rec.Close()
	fresh := func(build func(testing.TB) func()) func() func() {
		return func() func() {
			stripefs.New(sim.NewClock(), hw.Default(), nil)
			return build(t)
		}
	}
	rec.Allocs(t, "CompileFlow", 2, fresh(func(tb testing.TB) func() { runtime.GC(); return compileFlow(tb) }))
	rec.Allocs(t, "KernelHostTime", 2, fresh(kernelHostTime))
	rec.Allocs(t, "KernelHostTimeProfileUse", 2, fresh(kernelHostTimeProfileUse))
	for _, app := range nas.Apps() {
		rec.Allocs(t, "HostTimeNAS/"+app.Name, 2, fresh(func(tb testing.TB) func() { return hostTime(tb, app, 0.05, 0) }))
	}
}
