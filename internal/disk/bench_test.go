package disk

import (
	"testing"

	"repro/internal/golden"
	"repro/internal/hw"
	"repro/internal/sim"
)

// The backend benchmarks measure the host-side cost of one fault-free
// submit/service cycle per storage tier. TestBenchmarkAllocs holds them
// allocation-free: every simulated I/O passes through this path, so an
// allocation here multiplies across entire runs.

// backendCycle is one 4-page prefetch read submitted and serviced on a
// tier's backend, its queue, batch and event-heap capacities warmed.
func backendCycle(tier hw.Tier) func() {
	c := sim.NewClock()
	d := NewBackend(c, hw.ScaledTier(tier, 8<<20), 0, nil, nil, nil)
	done := func() {}
	for i := int64(0); i < 32; i++ {
		d.Submit(Request{Block: i, Pages: 1, Kind: FaultRead, Done: done})
	}
	c.Drain()
	req := Request{Block: 7, Pages: 4, Kind: PrefetchRead, Done: done}
	return func() {
		d.Submit(req)
		c.Drain()
	}
}

// farMemoryBatch16 exercises the far-memory batching path: 16 contiguous
// requests queued in one busy period coalesce into round trips, covering
// batch formation, wire-shape coalescing, and the shared completion sweep.
func farMemoryBatch16() func() {
	c := sim.NewClock()
	d := NewBackend(c, hw.ScaledTier(hw.TierFarMemory, 8<<20), 0, nil, nil, nil)
	done := func() {}
	for i := int64(0); i < 16; i++ {
		d.Submit(Request{Block: i, Pages: 1, Kind: PrefetchRead, Done: done})
	}
	c.Drain()
	return func() {
		for j := int64(0); j < 16; j++ {
			d.Submit(Request{Block: j, Pages: 1, Kind: PrefetchRead, Done: done})
		}
		c.Drain()
	}
}

func bench(b *testing.B, op func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

func BenchmarkBackendDisk(b *testing.B)      { bench(b, backendCycle(hw.TierDisk)) }
func BenchmarkBackendNVMe(b *testing.B)      { bench(b, backendCycle(hw.TierNVMe)) }
func BenchmarkBackendFarMem(b *testing.B)    { bench(b, backendCycle(hw.TierFarMemory)) }
func BenchmarkFarMemoryBatch16(b *testing.B) { bench(b, farMemoryBatch16()) }

// TestBenchmarkAllocs holds what one op of each benchmark above allocates
// to testdata/allocs.golden.
func TestBenchmarkAllocs(t *testing.T) {
	rec := golden.OpenAllocs(t, "testdata/allocs.golden")
	defer rec.Close()
	for name, tier := range map[string]hw.Tier{"BackendDisk": hw.TierDisk, "BackendNVMe": hw.TierNVMe, "BackendFarMem": hw.TierFarMemory} {
		rec.Allocs(t, name, 100, func() func() { return backendCycle(tier) })
	}
	rec.Allocs(t, "FarMemoryBatch16", 100, farMemoryBatch16)
}
