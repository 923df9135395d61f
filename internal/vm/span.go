package vm

// PageSpan returns the frame words backing the page that contains addr,
// together with addr's word offset into that page. It succeeds only when
// the n words starting at addr lie within the single page AND the page is
// resident and already touched (a hot mapping): a span never triggers a
// fault, a reclaim, or a fault classification, so the caller can fall
// back to ordinary Load/Store — which do all of those — whenever ok is
// false.
//
// On success the page is marked referenced, exactly as n individual Loads
// would mark it. Because simulated time only advances at kernel crossings
// (faults and hint system calls), batching the marking is indistinguishable
// from per-access marking as long as the caller performs no VM call while
// it uses the span.
//
// Pinning contract: the returned slice aliases frame memory. It is
// invalidated by ANY subsequent VM call that can advance simulated time or
// move pages — Load/Store (they may fault and evict), PrefetchRelease,
// Finish, Preload — and must never be held across one. Acquire, use, drop.
func (v *VM) PageSpan(addr, n int64) ([]uint64, int64, bool) {
	return v.pageSpan(addr, n, false)
}

// PageSpanW is PageSpan for stores: it additionally marks the page dirty,
// as n individual Stores would.
func (v *VM) PageSpanW(addr, n int64) ([]uint64, int64, bool) {
	return v.pageSpan(addr, n, true)
}

func (v *VM) pageSpan(addr, n int64, write bool) ([]uint64, int64, bool) {
	page := addr >> v.pageShift
	off := (addr & v.pageMask) >> 3
	if n < 1 || off+n > v.pageWords {
		return nil, 0, false
	}
	e := &v.pt[page]
	if e.state != hot {
		// Not resident, or resident but never touched (a prefetched page
		// whose first touch must still be classified): the per-element
		// path handles both.
		return nil, 0, false
	}
	e.referenced = true
	if write {
		e.dirty = true
	}
	return v.frameWords(e.frame), off, true
}
