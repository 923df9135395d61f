// Package hw reconstructs Table 1 of the paper: the characteristics of the
// experimental platform (Hector multiprocessor, Hurricane OS, seven
// striped disks). The HTML capture of the paper omits the table body, so
// the constants here are rebuilt from the prose (64 MB of memory of which
// ~48 MB is available to the application, 4 KB pages, seven disks,
// extent-based placement) and from period-typical disk and CPU figures.
// Every value can be overridden, and the experiment harness scales memory
// and data sizes down coherently so the suite runs in seconds.
package hw

import (
	"fmt"

	"repro/internal/sim"
)

// Params describes the simulated machine. All times are simulated
// nanoseconds (sim.Time). The storage subsystem is selected by Tier: the
// disk-geometry fields apply to TierDisk, the NVMe* fields to TierNVMe,
// and the Net* fields to TierFarMemory; Validate checks only the
// selected tier's fields, so an NVMe or far-memory machine with zero
// cylinders is legal.
type Params struct {
	// Memory system.
	PageSize    int64 // bytes per page (4 KB in the paper)
	MemoryBytes int64 // physical memory available to the application

	// Pageout daemon watermarks, in frames. When the free list drops
	// below LowWater the daemon reclaims until HighWater frames are free.
	LowWaterFrac  float64
	HighWaterFrac float64

	// Storage subsystem. Tier selects the device model (the zero value
	// is the paper's striped-disk array); NumDisks is the number of
	// devices the file system stripes across whatever the tier.
	Tier     Tier
	NumDisks int // seven in the paper

	// Disk tier (TierDisk): the positional service-time model.
	SeekMin         sim.Time // single-track seek
	SeekMax         sim.Time // full-stroke seek
	RotationTime    sim.Time // full platter rotation (5400 RPM -> 11.1 ms)
	TransferPerPage sim.Time // media transfer time for one page
	DiskCylinders   int64    // cylinder count used by the seek model
	PagesPerCyl     int64    // pages per cylinder (locality of extents)

	// NVMe tier (TierNVMe): a flat-latency device with no positional
	// state. The command latency amortizes across the device's internal
	// parallelism as the queue deepens (deep queues are how flash earns
	// its throughput), plus a per-page media transfer.
	NVMeLatency         sim.Time // uncontended one-command latency
	NVMeTransferPerPage sim.Time // media transfer time for one page
	NVMeParallelism     int      // internal channels the latency amortizes over

	// Far-memory tier (TierFarMemory): remote memory reached over a
	// network. Each fetch batch is one round trip; queued requests are
	// coalesced into batches of up to NetBatchRequests, each contiguous
	// run inside a batch costing NetPerRequest of header overhead, with
	// pages moving at NetTransferPerPage on the wire.
	NetRTT             sim.Time // network round trip per batched fetch
	NetTransferPerPage sim.Time // wire transfer time for one page
	NetPerRequest      sim.Time // per wire-request overhead inside a batch
	NetBatchRequests   int      // max requests coalesced per round trip

	// Operating system costs (Hurricane was instrumented, so the paper
	// calls these inflated; they are what the shape of the results needs).
	FaultServiceTime    sim.Time // CPU time in the kernel per major fault
	MinorFaultTime      sim.Time // reclaim of a page still on the free list
	PrefetchSyscallTime sim.Time // one prefetch/release system call
	ReleasePerPageTime  sim.Time // marginal kernel cost per released page

	// Run-time layer costs.
	FilterCheckTime sim.Time // user-level bit-vector check per page
	// ("roughly 1% as expensive as issuing it")

	// CPU model used by the executor to charge compute time.
	OpTime sim.Time // cost of one arithmetic op / load / store
}

// Default returns the full-size reconstructed platform of Table 1.
func Default() Params {
	return Params{
		PageSize:            4096,
		MemoryBytes:         48 << 20, // of the 64 MB machine, ~48 MB usable
		LowWaterFrac:        1.0 / 64,
		HighWaterFrac:       1.0 / 16,
		NumDisks:            7,
		SeekMin:             2 * sim.Millisecond,
		SeekMax:             20 * sim.Millisecond,
		RotationTime:        sim.Time(11.1 * float64(sim.Millisecond)),
		TransferPerPage:     800 * sim.Microsecond, // ~5 MB/s media rate
		DiskCylinders:       2000,
		PagesPerCyl:         64,
		FaultServiceTime:    500 * sim.Microsecond,
		MinorFaultTime:      60 * sim.Microsecond,
		PrefetchSyscallTime: 160 * sim.Microsecond,
		ReleasePerPageTime:  15 * sim.Microsecond,
		FilterCheckTime:     sim.Time(1600), // 1.6 µs ≈ 1% of a syscall
		OpTime:              200,            // ~5 MIPS: Hector-era CPU with instrumentation enabled
	}
}

// Scaled returns the default platform with physical memory reduced to
// memBytes. Workload generators size their data sets relative to memory,
// so scaling memory scales the whole experiment; latencies and CPU speed
// are left untouched, which preserves the latency-to-compute ratios the
// paper's results depend on.
func Scaled(memBytes int64) Params { return ScaledTier(TierDisk, memBytes) }

// Frames returns the number of physical page frames.
func (p Params) Frames() int64 { return p.MemoryBytes / p.PageSize }

// LowWater returns the pageout daemon's low watermark in frames (at least 4).
func (p Params) LowWater() int64 {
	n := int64(float64(p.Frames()) * p.LowWaterFrac)
	if n < 4 {
		n = 4
	}
	return n
}

// HighWater returns the daemon's refill target in frames.
func (p Params) HighWater() int64 {
	n := int64(float64(p.Frames()) * p.HighWaterFrac)
	if n <= p.LowWater() {
		n = p.LowWater() + 4
	}
	return n
}

// AvgPageRead returns the expected uncontended latency of a one-page
// read on p's storage tier: average seek plus half a rotation plus the
// transfer on the disk tier, the command latency plus transfer on the
// NVMe tier, and one round trip plus header and transfer on the
// far-memory tier. The compiler derives its prefetch distance from this
// figure, so each tier gets distances matched to its own latency.
func (p Params) AvgPageRead() sim.Time {
	switch p.Tier {
	case TierNVMe:
		return p.NVMeLatency + p.NVMeTransferPerPage
	case TierFarMemory:
		return p.NetRTT + p.NetPerRequest + p.NetTransferPerPage
	}
	avgSeek := (p.SeekMin + p.SeekMax) / 2
	return avgSeek + p.RotationTime/2 + p.TransferPerPage
}

// Validate checks the parameters for internal consistency. The storage
// checks are tier-aware: only the fields of p's own tier must be
// meaningful, so an NVMe or far-memory machine with zero disk geometry
// is legal while a disk machine with zero cylinders still fails.
func (p Params) Validate() error {
	switch {
	case p.PageSize <= 0 || p.PageSize&(p.PageSize-1) != 0:
		return fmt.Errorf("hw: page size %d is not a positive power of two", p.PageSize)
	case p.MemoryBytes < 8*p.PageSize:
		return fmt.Errorf("hw: memory %d B is under 8 pages", p.MemoryBytes)
	case p.NumDisks < 1:
		return fmt.Errorf("hw: need at least one storage device, have %d", p.NumDisks)
	}
	if err := p.validateTier(); err != nil {
		return err
	}
	switch {
	case p.FaultServiceTime <= 0 || p.PrefetchSyscallTime <= 0:
		return fmt.Errorf("hw: kernel costs must be positive")
	case p.FilterCheckTime <= 0 || p.FilterCheckTime >= p.PrefetchSyscallTime:
		return fmt.Errorf("hw: filter check %v must be positive and below syscall cost %v",
			p.FilterCheckTime, p.PrefetchSyscallTime)
	case p.OpTime <= 0:
		return fmt.Errorf("hw: op time must be positive")
	case p.LowWaterFrac <= 0 || p.HighWaterFrac <= p.LowWaterFrac || p.HighWaterFrac >= 1:
		return fmt.Errorf("hw: watermark fractions (%g, %g) invalid", p.LowWaterFrac, p.HighWaterFrac)
	}
	return nil
}

// PagesOf returns how many pages are needed to hold n bytes.
func (p Params) PagesOf(bytes int64) int64 {
	return (bytes + p.PageSize - 1) / p.PageSize
}
