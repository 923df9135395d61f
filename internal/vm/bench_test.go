package vm

import (
	"testing"

	"repro/internal/golden"
	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/stripefs"
)

// Substrate micro-benchmarks: the cost of the simulator's hot paths in
// real (host) time. These bound how fast experiments run, not simulated
// performance. Each benchmark's op is built by a function of its own,
// which TestBenchmarkAllocs calls too.

func benchVM(tb testing.TB, frames, spacePages int64) (*sim.Clock, *VM) {
	tb.Helper()
	p := hw.Default()
	p.MemoryBytes = frames * p.PageSize
	c := sim.NewClock()
	fs := stripefs.New(c, p, nil)
	f, err := fs.Create("space", spacePages)
	if err != nil {
		tb.Fatal(err)
	}
	return c, New(c, p, f)
}

// bench times b.N calls of the op build returns.
func bench(b *testing.B, build func(testing.TB) func()) {
	op := build(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

func residentLoad(tb testing.TB) func() {
	_, v := benchVM(tb, 64, 64)
	base, _ := v.Alloc("x", 8*v.Params().PageSize)
	_ = v.LoadF64(base)
	i := 0
	return func() {
		_ = v.LoadF64(base + int64(i%4096)&^7)
		i++
	}
}

func residentStore(tb testing.TB) func() {
	_, v := benchVM(tb, 64, 64)
	base, _ := v.Alloc("x", 8*v.Params().PageSize)
	v.StoreF64(base, 1)
	i := 0
	return func() {
		v.StoreF64(base+int64(i%4096)&^7, float64(i))
		i++
	}
}

// benchSink keeps span-iteration results observable so the compiler
// cannot elide the loops under measurement.
var benchSink uint64

// pageRunLoad is one page of the executor fast path's reads: one PageSpan
// acquisition amortized over iterating the page's words directly.
func pageRunLoad(tb testing.TB) func() {
	_, v := benchVM(tb, 64, 64)
	base, _ := v.Alloc("x", 8*v.Params().PageSize)
	pw := v.Params().PageSize / 8
	_ = v.LoadF64(base)
	return func() {
		words, off, ok := v.PageSpan(base, pw)
		if !ok {
			tb.Fatal("PageSpan refused a hot page")
		}
		var sum uint64
		for _, w := range words[off:] {
			sum += w
		}
		benchSink += sum
	}
}

// pageRunStore is the store-side twin: a PageSpanW acquisition amortized
// over direct word writes.
func pageRunStore(tb testing.TB) func() {
	_, v := benchVM(tb, 64, 64)
	base, _ := v.Alloc("x", 8*v.Params().PageSize)
	pw := v.Params().PageSize / 8
	v.StoreF64(base, 1)
	i := 0
	return func() {
		words, off, ok := v.PageSpanW(base, pw)
		if !ok {
			tb.Fatal("PageSpanW refused a hot page")
		}
		s := words[off:]
		for j := range s {
			s[j] = uint64(i + j)
		}
		i += int(pw)
	}
}

// hashPages is the output hash over a departing tenant's address space:
// 2048 pages, a quarter still in frames and the rest on the backing file.
func hashPages(tb testing.TB) func() {
	const pages = 2048
	c, v := benchVM(tb, pages/4, pages)
	ps := v.Params().PageSize
	base, _ := v.Alloc("x", pages*ps)
	for page := int64(0); page < pages; page++ {
		v.Store(base+page*ps+page%512*8, uint64(page)+1)
	}
	v.Finish()
	c.Drain()
	return func() { benchSink = v.Fingerprint() }
}

// demandFaultCycle touches pages in a pattern guaranteed to miss.
func demandFaultCycle(tb testing.TB) func() {
	_, v := benchVM(tb, 16, 1024)
	ps := v.Params().PageSize
	base, _ := v.Alloc("x", 1024*ps)
	i := 0
	return func() {
		_ = v.LoadF64(base + int64(i%1024)*ps)
		i++
	}
}

func prefetchSyscall(tb testing.TB) func() {
	c, v := benchVM(tb, 256, 4096)
	ps := v.Params().PageSize
	base, _ := v.Alloc("x", 4096*ps)
	p0 := v.PageOf(base)
	i := 0
	op := func() {
		v.Prefetch((p0+int64(i*4))%4092, 4)
		if i%32 == 0 {
			c.Advance(100 * sim.Millisecond)
		}
		i++
	}
	for range 4096 { // grow the queues to their steady state
		op()
	}
	return op
}

func releaseRescueCycle(tb testing.TB) func() {
	_, v := benchVM(tb, 64, 64)
	base, _ := v.Alloc("x", 8*v.Params().PageSize)
	_ = v.LoadF64(base)
	return func() {
		v.Release(v.PageOf(base), 1)
		_ = v.LoadF64(base) // minor-fault rescue
	}
}

func BenchmarkResidentLoad(b *testing.B)  { bench(b, residentLoad) }
func BenchmarkResidentStore(b *testing.B) { bench(b, residentStore) }

// BenchmarkPageRunLoad measures the executor fast path's per-word read
// cost. Compare against BenchmarkResidentLoad, which pays the full Load
// call per word.
func BenchmarkPageRunLoad(b *testing.B) {
	op, pw := pageRunLoad(b), int(hw.Default().PageSize/8)
	b.ResetTimer()
	for i := 0; i < b.N; i += pw {
		op()
	}
}

// BenchmarkPageRunStore is the store-side twin. Compare against
// BenchmarkResidentStore.
func BenchmarkPageRunStore(b *testing.B) {
	op, pw := pageRunStore(b), int(hw.Default().PageSize/8)
	b.ResetTimer()
	for i := 0; i < b.N; i += pw {
		op()
	}
}

// BenchmarkHashPages measures hashPages as MB/s of page contents. It must
// stay at memory speed and allocation-free: every tenant departure and
// every harness comparison runs it over the whole space.
func BenchmarkHashPages(b *testing.B) {
	b.SetBytes(2048 * hw.Default().PageSize)
	bench(b, hashPages)
}

func BenchmarkDemandFaultCycle(b *testing.B)   { bench(b, demandFaultCycle) }
func BenchmarkPrefetchSyscall(b *testing.B)    { bench(b, prefetchSyscall) }
func BenchmarkReleaseRescueCycle(b *testing.B) { bench(b, releaseRescueCycle) }

// TestBenchmarkAllocs holds what one op of each benchmark above allocates
// to testdata/allocs.golden.
func TestBenchmarkAllocs(t *testing.T) {
	rec := golden.OpenAllocs(t, "testdata/allocs.golden")
	defer rec.Close()
	for _, b := range []struct {
		name  string
		build func(testing.TB) func()
	}{
		{"ResidentLoad", residentLoad},
		{"ResidentStore", residentStore},
		{"PageRunLoad", pageRunLoad},
		{"PageRunStore", pageRunStore},
		{"HashPages", hashPages},
		{"DemandFaultCycle", demandFaultCycle},
		{"PrefetchSyscall", prefetchSyscall},
		{"ReleaseRescueCycle", releaseRescueCycle},
	} {
		rec.Allocs(t, b.name, 100, func() func() { return b.build(t) })
	}
}
