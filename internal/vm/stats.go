package vm

import "repro/internal/sim"

// TimeStats is the four-way execution-time breakdown of Figure 3(a):
// user-mode compute (including prefetch address generation and run-time
// layer filtering), system time spent servicing page faults, system time
// spent performing prefetch and release operations, and idle (I/O stall)
// time.
type TimeStats struct {
	User        sim.Time
	SysFault    sim.Time
	SysPrefetch sim.Time
	Idle        sim.Time
}

// Total returns the sum of all four buckets, i.e. the run's execution time.
func (t TimeStats) Total() sim.Time {
	return t.User + t.SysFault + t.SysPrefetch + t.Idle
}

// Stats counts virtual-memory events. Faults that stall on I/O are
// classified the way Figure 4(a) does: every "original" page fault either
// became a prefetched hit (latency fully hidden), remained a fault despite
// being prefetched (issued too late, dropped, or evicted before use), or
// was never prefetched at all.
//
// The VM tallies straight into one Stats and one TimeStats: plain fields
// incremented without synchronization, which is safe because a VM is
// driven by a single goroutine (each run owns a private simulator). The
// metrics registry reads the same fields through the VM's source
// (readMetrics) when it is read.
type Stats struct {
	// Fault classification (Figure 4(a)). OriginalFaults() is their sum.
	PrefetchedHits     int64 // prefetched and the fault was eliminated
	PrefetchedFaults   int64 // prefetched but the application still stalled
	NonPrefetchedFault int64 // faulted without any prefetch having been issued

	// MajorFaults is derived, not tallied: every classified fault required
	// disk I/O, so Stats() fills it as PrefetchedFaults + NonPrefetchedFault.
	MajorFaults int64 // faults that required disk I/O
	MinorFaults int64 // reclaim faults: page rescued from the free list

	// Prefetch activity at the OS interface.
	PrefetchCalls     int64 // prefetch/release system calls
	PrefetchPagesSeen int64 // pages named in those calls (derived: issued + rescues + unneeded + dropped)
	PrefetchIssued    int64 // pages for which a disk read was started
	PrefetchRescues   int64 // pages reclaimed from the free list (useful work)
	PrefetchUnneeded  int64 // pages already mapped (wasted syscall work)
	PrefetchDropped   int64 // pages dropped because no memory was free
	// PrefetchAbandoned counts issued prefetch reads the disk permanently
	// failed under fault injection; the pages reverted to unmapped and
	// were recovered by later demand faults. Always zero without faults.
	// (These pages are in PrefetchIssued, so they are not added to
	// PrefetchPagesSeen again.)
	PrefetchAbandoned int64

	// Release activity.
	ReleaseCalls  int64 // calls carrying at least one release
	ReleasedPages int64 // pages released
	Writebacks    int64 // dirty-page writes to disk (daemon, release, eviction)

	// Memory manager activity.
	Reclaims    int64 // frames taken from one page and given to another
	DaemonScans int64 // pageout daemon activations (pool-wide, filled by Stats())
}

// OriginalFaults returns the number of page faults the unmodified program
// would have taken, reconstructed from the classification counters.
func (s Stats) OriginalFaults() int64 {
	return s.PrefetchedHits + s.PrefetchedFaults + s.NonPrefetchedFault
}

// CoverageFactor returns the fraction of original faults that were
// prefetched (hit or not), Figure 4(a)'s coverage factor.
func (s Stats) CoverageFactor() float64 {
	total := s.OriginalFaults()
	if total == 0 {
		return 0
	}
	return float64(s.PrefetchedHits+s.PrefetchedFaults) / float64(total)
}

// UnnecessaryAtOSFrac returns the fraction of pages named in prefetch
// system calls that were already mapped — the left-hand column of
// Figure 4(b).
func (s Stats) UnnecessaryAtOSFrac() float64 {
	if s.PrefetchPagesSeen == 0 {
		return 0
	}
	return float64(s.PrefetchUnneeded) / float64(s.PrefetchPagesSeen)
}

// metricNames is the VM's metrics table, in readMetrics' order.
var metricNames = []string{
	"vm.time.user_ns", "vm.time.sys_fault_ns", "vm.time.sys_prefetch_ns", "vm.time.idle_ns",
	"vm.faults.prefetched_hit", "vm.faults.prefetched_fault", "vm.faults.non_prefetched", "vm.faults.minor",
	"vm.prefetch.calls", "vm.prefetch.issued", "vm.prefetch.rescues",
	"vm.prefetch.unneeded", "vm.prefetch.dropped", "vm.prefetch.abandoned",
	"vm.release.calls", "vm.release.pages", "vm.writebacks", "vm.reclaims", "vm.daemon_scans",
}

// readMetrics is the VM's obs.Source: the accounting fields as they
// stand, user time without the compute not yet flushed to the clock.
func (v *VM) readMetrics(c []int64, _ []float64) {
	t, n := &v.t, &v.n
	copy(c, []int64{
		int64(t.User), int64(t.SysFault), int64(t.SysPrefetch), int64(t.Idle),
		n.PrefetchedHits, n.PrefetchedFaults, n.NonPrefetchedFault, n.MinorFaults,
		n.PrefetchCalls, n.PrefetchIssued, n.PrefetchRescues,
		n.PrefetchUnneeded, n.PrefetchDropped, n.PrefetchAbandoned,
		n.ReleaseCalls, n.ReleasedPages, n.Writebacks, n.Reclaims, v.pool.scans,
	})
}
