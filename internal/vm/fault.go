package vm

import (
	"fmt"
	"math"

	"repro/internal/disk"
)

// Load reads the 8-byte word at addr, faulting the page in if necessary.
// This is the application's view of memory: a plain load against unlimited
// virtual memory. Frames store words natively, so a resident hit is one
// page-table check and one indexed read — no byte decoding.
func (v *VM) Load(addr int64) uint64 {
	page := addr >> v.pageShift
	e := &v.pt[page]
	if e.state != hot || v.words == nil {
		v.touchSlow(page)
	}
	e.referenced = true
	return v.words[int64(e.frame)<<v.wordShift+(addr&v.pageMask)>>3]
}

// Store writes the 8-byte word at addr, faulting the page in if necessary
// and marking it dirty.
func (v *VM) Store(addr int64, word uint64) {
	page := addr >> v.pageShift
	e := &v.pt[page]
	if e.state != hot || v.words == nil {
		v.touchSlow(page)
	}
	e.referenced = true
	e.dirty = true
	v.words[int64(e.frame)<<v.wordShift+(addr&v.pageMask)>>3] = word
}

// LoadFast is the executor kernel's inlinable hot probe: it succeeds
// only when the page holding addr is hot (resident and already
// touched), in which case it performs exactly what Load would — mark
// referenced, read the word — without the fault machinery on the call
// path. ok=false means the caller must go through Load, which faults,
// classifies, and stalls as usual.
func (v *VM) LoadFast(addr int64) (uint64, bool) {
	e := &v.pt[addr>>v.pageShift]
	if e.state != hot {
		return 0, false
	}
	e.referenced = true
	return v.words[int64(e.frame)<<v.wordShift+(addr&v.pageMask)>>3], true
}

// StoreFast is LoadFast for stores: on a hot page it marks referenced
// and dirty and writes the word, exactly as Store would.
func (v *VM) StoreFast(addr int64, word uint64) bool {
	e := &v.pt[addr>>v.pageShift]
	if e.state != hot {
		return false
	}
	e.referenced = true
	e.dirty = true
	v.words[int64(e.frame)<<v.wordShift+(addr&v.pageMask)>>3] = word
	return true
}

// LoadF64 reads a float64 at addr.
func (v *VM) LoadF64(addr int64) float64 { return math.Float64frombits(v.Load(addr)) }

// StoreF64 writes a float64 at addr.
func (v *VM) StoreF64(addr int64, val float64) { v.Store(addr, math.Float64bits(val)) }

// LoadI64 reads an int64 at addr.
func (v *VM) LoadI64(addr int64) int64 { return int64(v.Load(addr)) }

// StoreI64 writes an int64 at addr.
func (v *VM) StoreI64(addr int64, val int64) { v.Store(addr, uint64(val)) }

// Resident reports whether a page is currently mapped and usable without
// a stall (used by tests and the warm-start path).
func (v *VM) Resident(page int64) bool {
	s := v.pt[page].state
	return s == resident || s == hot
}

// InTransit reports whether a read is in flight for the page: the
// condition a touch that could not complete waits out before retrying.
func (v *VM) InTransit(page int64) bool { return v.pt[page].state == inTransit }

// touchSlow is the blocking driver of the fault path, under Load and
// Store: where the touch must wait on a read, the run's one CPU stalls.
// It loops because time passes while a fault is serviced, during which
// the page may arrive and even be evicted again under memory pressure.
func (v *VM) touchSlow(page int64) {
	e := &v.pt[page]
	for !v.touchAsync(page) {
		v.waitIdle("stall", func() bool { return e.state != inTransit })
	}
}

// TouchAsync is the non-blocking driver of the fault path, for the
// multi-tenant scheduler: true means the page is hot and the access may
// proceed through LoadFast/StoreFast; false means the touch waits on an
// in-flight read, and the caller parks (leaving the shared CPU to other
// tenants) until InTransit(page) turns false, then calls TouchAsync for
// the same page again. takeFrame may still stall inside (the demand
// path's synchronous reclaim when the free list is empty): that models
// the single CPU sweeping for a victim, and is charged to this tenant.
func (v *VM) TouchAsync(page int64) bool {
	e := &v.pt[page]
	if e.state == hot && v.words != nil {
		return true
	}
	for !v.touchAsync(page) {
		if e.state == inTransit {
			return false
		}
	}
	return true
}

// touchAsync is the fault handler (PAPER.md §2.4, Figure 4(a)): one step
// of the touch episode of a page that is not hot. It classifies the touch
// (hit, late, unprefetched) when the episode opens, charges the kernel
// work, rescues the page from the free list or issues the demand read,
// and returns true once the page is hot. false leaves the episode open in
// v.faultPage (an address space has at most one: its thread of control
// retries the access it stopped on), so the next call neither classifies
// nor charges the same fault again; the driver first waits until the page
// is out of transit — zero time if it landed during the charge.
func (v *VM) touchAsync(page int64) bool {
	if v.words == nil {
		panic(fmt.Sprintf("vm: page %d of %q touched after its run finished and recycled its frames", page, v.file.Name()))
	}
	e := &v.pt[page]
	first := v.faultPage != page
	if first && e.state == resident {
		// First touch of an already-resident page costs nothing: if a
		// prefetch brought it in, the original fault was fully hidden.
		// The access itself marks the page referenced.
		if e.prefetched {
			v.prefetchedHit(page, e)
		}
		e.touched = true
		e.state = hot
		return true
	}

	v.flushUser()
	switch e.state {
	case freeListed:
		// Reclaim fault: the page is still in memory on the free list;
		// rescuing it costs a short kernel entry but no I/O.
		v.chargeSys(&v.t.SysFault, "minor-fault", "fault", v.p.MinorFaultTime)
		v.n.MinorFaults++
		v.pool.rescueFromFree(e.frame)
		e.state = resident
		if first && !e.touched && e.prefetched {
			v.prefetchedHit(page, e)
		}
		e.prefetched = false

	case inTransit:
		// A read is in flight but did not complete early enough: take
		// the fault once, and wait for the remainder.
		if first {
			v.chargeSys(&v.t.SysFault, "fault-service", "fault", v.p.FaultServiceTime)
			v.classifyFault(page, e)
		}
		v.faultPage = page
		return false

	case unmapped:
		// Demand (major) fault: the full disk latency is exposed. On a
		// retry the page was reclaimed, or its prefetch abandoned, while
		// the episode waited: a fresh fault, but the same original one.
		v.chargeSys(&v.t.SysFault, "fault-service", "fault", v.p.FaultServiceTime)
		if first {
			v.classifyFault(page, e)
		}
		// Take a frame (evicting synchronously under pressure), then read.
		e.frame, _ = v.pool.takeFrame(v, page, false)
		e.state = inTransit
		v.inTransitCount++
		v.pool.inTransitCount++
		v.bitvec.Set(page)
		v.file.Read(page, 1, disk.FaultRead, v.dstFn, v.arrivedFn,
			nil, // a demand read must not fail: its device requeues it
			nil)
		v.faultPage = page
		return false
	}
	v.faultPage = -1
	e.touched = true
	e.state = hot
	e.referenced = true
	v.bitvec.Set(page)
	return true
}

// prefetchedHit counts a first touch whose fault a prefetch eliminated.
func (v *VM) prefetchedHit(page int64, e *pte) {
	v.n.PrefetchedHits++
	v.trFaults.InstantArg("hit", "fault-class", v.clock.Now(), "page", page)
	e.prefetched = false
}

// classifyFault counts a touch that turned out to be a real (major)
// fault: either a prefetch did not do its job or there was none.
func (v *VM) classifyFault(page int64, e *pte) {
	if e.prefetched {
		v.n.PrefetchedFaults++
		v.trFaults.InstantArg("late", "fault-class", v.clock.Now(), "page", page)
	} else {
		v.n.NonPrefetchedFault++
		v.trFaults.InstantArg("unprefetched", "fault-class", v.clock.Now(), "page", page)
	}
	e.prefetched = false
}

// finishRead marks an in-flight page as resident once its data has been
// copied into its frame.
func (v *VM) finishRead(page int64) {
	e := &v.pt[page]
	if e.state == inTransit {
		e.state = resident
		v.inTransitCount--
		v.pool.inTransitCount--
		v.pool.ioGen++
	}
}
