package vm

import (
	"repro/internal/obs"
	"repro/internal/sim"
)

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
// registry counters below are the export surface; every view read
// publishes into them first, so registry snapshots taken after Stats() or
// Times() — which is how runs surface their metrics — are current.
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

// counters is the VM's set of metrics-registry handles. The VM is the
// sole writer of these names in its run's registry, so publish may use
// absolute stores.
type counters struct {
	user, sysFault, sysPrefetch, idle *obs.Counter

	prefetchedHits, prefetchedFaults, nonPrefetchedFault *obs.Counter
	minorFaults                                          *obs.Counter

	prefetchCalls, prefetchIssued                      *obs.Counter
	prefetchRescues, prefetchUnneeded, prefetchDropped *obs.Counter
	prefetchAbandoned                                  *obs.Counter

	releaseCalls, releasedPages, writebacks *obs.Counter
	reclaims, daemonScans                   *obs.Counter
}

// newCounters resolves the VM's counter handles in reg once.
func newCounters(reg *obs.Registry) counters {
	return counters{
		user:        reg.Counter("vm.time.user_ns"),
		sysFault:    reg.Counter("vm.time.sys_fault_ns"),
		sysPrefetch: reg.Counter("vm.time.sys_prefetch_ns"),
		idle:        reg.Counter("vm.time.idle_ns"),

		prefetchedHits:     reg.Counter("vm.faults.prefetched_hit"),
		prefetchedFaults:   reg.Counter("vm.faults.prefetched_fault"),
		nonPrefetchedFault: reg.Counter("vm.faults.non_prefetched"),
		minorFaults:        reg.Counter("vm.faults.minor"),

		prefetchCalls:     reg.Counter("vm.prefetch.calls"),
		prefetchIssued:    reg.Counter("vm.prefetch.issued"),
		prefetchRescues:   reg.Counter("vm.prefetch.rescues"),
		prefetchUnneeded:  reg.Counter("vm.prefetch.unneeded"),
		prefetchDropped:   reg.Counter("vm.prefetch.dropped"),
		prefetchAbandoned: reg.Counter("vm.prefetch.abandoned"),

		releaseCalls:  reg.Counter("vm.release.calls"),
		releasedPages: reg.Counter("vm.release.pages"),
		writebacks:    reg.Counter("vm.writebacks"),
		reclaims:      reg.Counter("vm.reclaims"),
		daemonScans:   reg.Counter("vm.daemon_scans"),
	}
}

// publish stores the VM's accounting into its registry counters.
func (v *VM) publish() {
	c := &v.c
	c.user.Store(int64(v.t.User))
	c.sysFault.Store(int64(v.t.SysFault))
	c.sysPrefetch.Store(int64(v.t.SysPrefetch))
	c.idle.Store(int64(v.t.Idle))

	n := &v.n
	c.prefetchedHits.Store(n.PrefetchedHits)
	c.prefetchedFaults.Store(n.PrefetchedFaults)
	c.nonPrefetchedFault.Store(n.NonPrefetchedFault)
	c.minorFaults.Store(n.MinorFaults)

	c.prefetchCalls.Store(n.PrefetchCalls)
	c.prefetchIssued.Store(n.PrefetchIssued)
	c.prefetchRescues.Store(n.PrefetchRescues)
	c.prefetchUnneeded.Store(n.PrefetchUnneeded)
	c.prefetchDropped.Store(n.PrefetchDropped)
	c.prefetchAbandoned.Store(n.PrefetchAbandoned)

	c.releaseCalls.Store(n.ReleaseCalls)
	c.releasedPages.Store(n.ReleasedPages)
	c.writebacks.Store(n.Writebacks)
	c.reclaims.Store(n.Reclaims)
	c.daemonScans.Store(v.pool.scans)
}
