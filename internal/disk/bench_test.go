package disk

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/sim"
)

// The backend benchmarks measure the host-side cost of one fault-free
// submit/service cycle per storage tier. They sit in the regression gate
// with zero-allocation baselines: every simulated I/O passes through
// this path, so an allocation here multiplies across entire runs.

func benchBackend(b *testing.B, tier hw.Tier) {
	c := sim.NewClock()
	d := NewBackend(c, hw.ScaledTier(tier, 8<<20), 0, nil, nil, nil)
	done := func() {}
	// Warm up queue, batch, and event-heap capacities so the timed loop
	// is the steady state.
	for i := int64(0); i < 32; i++ {
		d.Submit(Request{Block: i, Pages: 1, Kind: FaultRead, Done: done})
	}
	c.Drain()
	req := Request{Block: 7, Pages: 4, Kind: PrefetchRead, Done: done}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Submit(req)
		c.Drain()
	}
}

func BenchmarkBackendDisk(b *testing.B)   { benchBackend(b, hw.TierDisk) }
func BenchmarkBackendNVMe(b *testing.B)   { benchBackend(b, hw.TierNVMe) }
func BenchmarkBackendFarMem(b *testing.B) { benchBackend(b, hw.TierFarMemory) }

// BenchmarkFarMemoryBatch16 exercises the far-memory batching path: 16
// contiguous requests queued in one busy period coalesce into round
// trips, covering batch formation, wire-shape coalescing, and the
// shared completion sweep.
func BenchmarkFarMemoryBatch16(b *testing.B) {
	c := sim.NewClock()
	p := hw.ScaledTier(hw.TierFarMemory, 8<<20)
	d := NewBackend(c, p, 0, nil, nil, nil)
	done := func() {}
	for i := int64(0); i < 16; i++ {
		d.Submit(Request{Block: i, Pages: 1, Kind: PrefetchRead, Done: done})
	}
	c.Drain()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := int64(0); j < 16; j++ {
			d.Submit(Request{Block: j, Pages: 1, Kind: PrefetchRead, Done: done})
		}
		c.Drain()
	}
}
