package vm

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/stripefs"
)

// Substrate micro-benchmarks: the cost of the simulator's hot paths in
// real (host) time. These bound how fast experiments run, not simulated
// performance.

func benchVM(b *testing.B, frames, spacePages int64) (*sim.Clock, *VM) {
	b.Helper()
	p := hw.Default()
	p.MemoryBytes = frames * p.PageSize
	c := sim.NewClock()
	fs := stripefs.New(c, p, nil)
	f, err := fs.Create("space", spacePages)
	if err != nil {
		b.Fatal(err)
	}
	return c, New(c, p, f)
}

func BenchmarkResidentLoad(b *testing.B) {
	_, v := benchVM(b, 64, 64)
	base, _ := v.Alloc("x", 8*v.Params().PageSize)
	_ = v.LoadF64(base)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = v.LoadF64(base + int64(i%4096)&^7)
	}
}

func BenchmarkResidentStore(b *testing.B) {
	_, v := benchVM(b, 64, 64)
	base, _ := v.Alloc("x", 8*v.Params().PageSize)
	v.StoreF64(base, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.StoreF64(base+int64(i%4096)&^7, float64(i))
	}
}

// benchSink keeps span-iteration results observable so the compiler
// cannot elide the loops under measurement.
var benchSink uint64

// BenchmarkPageRunLoad measures the executor fast path's per-word read
// cost: one PageSpan acquisition per page amortized over iterating the
// page's words directly. Compare against BenchmarkResidentLoad, which
// pays the full Load call per word.
func BenchmarkPageRunLoad(b *testing.B) {
	_, v := benchVM(b, 64, 64)
	base, _ := v.Alloc("x", 8*v.Params().PageSize)
	pw := v.Params().PageSize / 8
	_ = v.LoadF64(base)
	var sum uint64
	b.ResetTimer()
	for i := 0; i < b.N; i += int(pw) {
		words, off, ok := v.PageSpan(base, pw)
		if !ok {
			b.Fatal("PageSpan refused a hot page")
		}
		for _, w := range words[off:] {
			sum += w
		}
	}
	benchSink = sum
}

// BenchmarkPageRunStore is the store-side twin: PageSpanW acquisition
// amortized over direct word writes. Compare against
// BenchmarkResidentStore.
func BenchmarkPageRunStore(b *testing.B) {
	_, v := benchVM(b, 64, 64)
	base, _ := v.Alloc("x", 8*v.Params().PageSize)
	pw := v.Params().PageSize / 8
	v.StoreF64(base, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i += int(pw) {
		words, off, ok := v.PageSpanW(base, pw)
		if !ok {
			b.Fatal("PageSpanW refused a hot page")
		}
		s := words[off:]
		for j := range s {
			s[j] = uint64(i + j)
		}
	}
}

// BenchmarkHashPages measures the output hash over a departing tenant's
// address space — 2048 pages, a quarter still in frames and the rest on
// the backing file — as MB/s of page contents. It must stay at memory
// speed and allocation-free: every tenant departure and every harness
// comparison runs it over the whole space.
func BenchmarkHashPages(b *testing.B) {
	const pages = 2048
	c, v := benchVM(b, pages/4, pages)
	ps := v.Params().PageSize
	base, _ := v.Alloc("x", pages*ps)
	for page := int64(0); page < pages; page++ {
		v.Store(base+page*ps+page%512*8, uint64(page)+1)
	}
	v.Finish()
	c.Drain()
	b.SetBytes(pages * ps)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = v.Fingerprint()
	}
}

func BenchmarkDemandFaultCycle(b *testing.B) {
	c, v := benchVM(b, 16, 1024)
	ps := v.Params().PageSize
	base, _ := v.Alloc("x", 1024*ps)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Touch pages in a pattern guaranteed to miss.
		_ = v.LoadF64(base + int64(i%1024)*ps)
	}
	b.StopTimer()
	c.Drain()
}

func BenchmarkPrefetchSyscall(b *testing.B) {
	c, v := benchVM(b, 256, 4096)
	ps := v.Params().PageSize
	base, _ := v.Alloc("x", 4096*ps)
	p0 := v.PageOf(base)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Prefetch((p0+int64(i*4))%4092, 4)
		if i%32 == 0 {
			c.Advance(100 * sim.Millisecond)
		}
	}
	b.StopTimer()
	c.Drain()
}

func BenchmarkReleaseRescueCycle(b *testing.B) {
	c, v := benchVM(b, 64, 64)
	base, _ := v.Alloc("x", 8*v.Params().PageSize)
	_ = v.LoadF64(base)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Release(v.PageOf(base), 1)
		_ = v.LoadF64(base) // minor-fault rescue
	}
	b.StopTimer()
	c.Drain()
}
