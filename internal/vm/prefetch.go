package vm

import (
	"fmt"

	"repro/internal/disk"
	"repro/internal/sim"
)

// maxPrefetchQueue is the per-disk queue depth beyond which the OS drops
// prefetch hints rather than bury demand faults behind them (the Gold
// threshold; lower classes drop earlier — see SetClass).
const maxPrefetchQueue = 12

// PrefetchRelease is the bundled system call of Figure 2: prefetch pages
// [pfPage, pfPage+pfN) and release pages [relPage, relPage+relN) in one
// kernel crossing. Either range may be empty. Both hints are non-binding:
// prefetches are dropped when no memory is free, and releases of absent
// pages are no-ops.
func (v *VM) PrefetchRelease(pfPage, pfN, relPage, relN int64) {
	v.checkRange(pfPage, pfN)
	v.checkRange(relPage, relN)
	v.flushUser()
	cost := v.p.PrefetchSyscallTime + sim.Time(relN)*v.p.ReleasePerPageTime
	v.chargeSys(&v.t.SysPrefetch, "prefetch-release", "prefetch", cost)
	v.n.PrefetchCalls++
	if relN > 0 {
		v.n.ReleaseCalls++
	}

	// Releases first: they may free exactly the memory the prefetches in
	// the same call need.
	for p := relPage; p < relPage+relN; p++ {
		v.releaseOne(p)
	}

	// Issue prefetch reads, coalescing contiguous runs so a block
	// prefetch becomes at most one request per disk. The callbacks are
	// the construction-time bound methods, so the whole hint path runs
	// without allocating.
	runStart := int64(-1)
	for p := pfPage; p < pfPage+pfN; p++ {
		if v.prefetchOne(p) {
			if runStart < 0 {
				runStart = p
			}
		} else if runStart >= 0 {
			v.issueRun(runStart, p)
			runStart = -1
		}
	}
	if runStart >= 0 {
		v.issueRun(runStart, pfPage+pfN)
	}
}

// issueRun starts one coalesced prefetch read of pages [start, end);
// abandonFn runs for each page whose read exhausts its retry budget.
func (v *VM) issueRun(start, end int64) {
	v.file.Read(start, end-start, disk.PrefetchRead, v.dstFn, v.arrivedFn, v.abandonFn, nil)
}

// Prefetch is the prefetch-only form of the system call.
func (v *VM) Prefetch(page, n int64) { v.PrefetchRelease(page, n, 0, 0) }

// Release is the release-only form of the system call.
func (v *VM) Release(page, n int64) { v.PrefetchRelease(0, 0, page, n) }

func (v *VM) checkRange(page, n int64) {
	if n == 0 {
		return
	}
	if page < 0 || n < 0 || page+n > v.file.Pages() {
		panic(fmt.Sprintf("vm: hint range [%d,%d) outside address space of %d pages",
			page, page+n, v.file.Pages()))
	}
}

// prefetchOne processes a single page of a prefetch hint and reports
// whether a disk read must be started for it.
func (v *VM) prefetchOne(p int64) bool {
	e := &v.pt[p]
	switch e.state {
	case resident, hot:
		if e.cleaning && e.toFree && !e.front {
			e.toFree = false // cancel a pending daemon eviction
		}
		v.n.PrefetchUnneeded++
	case inTransit:
		v.n.PrefetchUnneeded++
	case freeListed:
		// The page is in memory but on the free list: reclaiming it is
		// useful work (the paper's footnote), not an unnecessary prefetch.
		v.pool.rescueFromFree(e.frame)
		e.state = resident
		e.prefetched = true
		e.touched = false
		v.n.PrefetchRescues++
		v.bitvec.Set(p)
	case unmapped:
		// Hints are non-binding: the OS drops them "if there is not
		// enough physical memory to buffer prefetched data, or if the
		// disk subsystem is overloaded" (§2.2.1). A dropped page's
		// residency bit is cleared so the run-time layer does not
		// believe a stale hint. Injected pressure spikes drop hints
		// through exactly the same path as real pressure. The queue and
		// free-list thresholds are the tenant's class thresholds: lower
		// classes give up earlier, so best-effort prefetches are the
		// first dropped under pressure.
		// The nil check is out here so the fault-free path does not even
		// read the clock to build the call's arguments.
		if v.flt != nil && v.flt.DropPrefetch(v.clock.Now(), p) {
			v.dropPrefetch(e, p)
			return false
		}
		if v.file.QueueLenOf(p) > v.pfQueueMax {
			v.dropPrefetch(e, p)
			return false
		}
		if v.pool.freeCount <= v.pfFreeFloor {
			v.dropPrefetch(e, p)
			return false
		}
		f, ok := v.pool.takeFrame(v, p, true)
		if !ok {
			v.dropPrefetch(e, p)
			return false
		}
		e.frame = f
		e.state = inTransit
		v.inTransitCount++
		v.pool.inTransitCount++
		e.prefetched = true
		e.touched = false
		v.n.PrefetchIssued++
		v.bitvec.Set(p)
		return true
	}
	return false
}

// abandonPrefetch reverts an in-flight prefetched page whose disk read
// was permanently abandoned by the file system (retry policy exhausted).
// Hints are non-binding, so this is safe by construction: the page goes
// back to unmapped with its (zero-content) frame returned to the free
// list, and the application's eventual touch takes a normal demand
// fault — which retries the read through the must-not-fail path. The
// pte keeps prefetched=true so that fault classifies as a late
// prefetched fault, like any other prefetch that failed to hide its
// latency. Anyone already waiting on the page, stalled or parked, sees
// it leave inTransit, finds it unmapped, and demand-faults.
func (v *VM) abandonPrefetch(page int64) {
	e := &v.pt[page]
	if e.state != inTransit {
		return
	}
	f := e.frame
	e.state = unmapped
	e.frame = -1
	e.touched = false
	e.referenced = false
	// Push while the frame is still mapped so the pool's residency
	// accounting sees the transition, then sever the mapping.
	v.pool.pushFreeBack(f)
	v.pool.frames[f].vpage = -1
	v.inTransitCount--
	v.pool.inTransitCount--
	v.pool.ioGen++
	v.bitvec.Clear(page)
	v.n.PrefetchAbandoned++
	v.trFaults.InstantArg("abandoned", "prefetch", v.clock.Now(), "page", page)
}

// dropPrefetch records a non-binding prefetch the OS declined.
func (v *VM) dropPrefetch(e *pte, p int64) {
	v.n.PrefetchDropped++
	v.trFaults.InstantArg("dropped", "prefetch", v.clock.Now(), "page", p)
	e.prefetched = true
	v.bitvec.Clear(p)
}

// releaseOne processes a single page of a release hint: clear its
// residency bit and make its frame the next victim, writing it back first
// if dirty.
func (v *VM) releaseOne(p int64) {
	e := &v.pt[p]
	v.n.ReleasedPages++
	v.bitvec.Clear(p)
	if e.state != resident && e.state != hot {
		return // absent, in flight, or already free-listed: nothing to do
	}
	e.referenced = false
	if e.cleaning {
		e.toFree = true
		e.front = true
		return
	}
	if e.dirty {
		v.startClean(p, true, true)
		return
	}
	e.state = freeListed
	v.pool.pushFreeFront(e.frame)
}

// Preload installs the backing contents of pages [page, page+n) directly
// into frames with no simulated cost, for warm-started experiments. It
// reports how many pages were installed (it stops when memory fills to the
// high watermark).
func (v *VM) Preload(page, n int64) int64 {
	v.checkRange(page, n)
	var loaded int64
	for p := page; p < page+n; p++ {
		if v.pool.freeCount <= v.p.HighWater() {
			break
		}
		e := &v.pt[p]
		if e.state != unmapped {
			loaded++
			continue
		}
		f, ok := v.pool.takeFrame(v, p, true)
		if !ok {
			break
		}
		buf := v.frameWords(f)
		if src := v.file.PeekPage(p); src != nil {
			copy(buf, src)
		} else {
			for i := range buf {
				buf[i] = 0
			}
		}
		e.frame = f
		e.state = hot
		e.touched = true
		e.referenced = true
		v.bitvec.Set(p)
		loaded++
	}
	return loaded
}

// ResetAccounting zeroes the time breakdown, event counters, and the
// free-memory integral. Experiments call it after warm-up so that only the
// timed region is measured.
func (v *VM) ResetAccounting() {
	v.flushUser()
	v.n, v.t = Stats{}, TimeStats{}
	v.pool.ResetAccounting()
}
