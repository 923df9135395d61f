package vm

// The pageout daemon, clock-hand eviction, and synchronous reclaim live
// on the Pool (pool.go): physical memory is pool state, and fair-share
// reclaim needs the all-tenants view. What remains here is the per-page
// write-back machinery, which needs the owning address space's page
// table and backing file.

// startClean begins a write-back of a dirty page. toFree moves the page to
// the free list once the write completes (unless it was re-dirtied or, for
// daemon evictions, re-referenced in the meantime); front puts it at the
// head of the free list (the release path). The completion is cleanedFn, a
// method value bound once per VM: the page-table entry already carries the
// toFree/front disposition, so nothing needs to be closed over and the
// write path allocates nothing per page.
func (v *VM) startClean(page int64, toFree, front bool) {
	e := &v.pt[page]
	e.dirty = false
	e.cleaning = true
	e.toFree = toFree
	e.front = front
	v.cleaningCount++
	v.pool.cleaningCount++
	v.n.Writebacks++
	v.file.Write(page, v.frameWords(e.frame), v.cleanedFn)
}

// cleaned is the write-back completion: it re-reads the page's
// disposition from the page table (the write may have raced with a
// touch, a re-dirty, or a release upgrade) and moves the page to the
// free list when the eviction still stands.
func (v *VM) cleaned(page int64) {
	e := &v.pt[page]
	v.cleaningCount--
	v.pool.cleaningCount--
	v.pool.ioGen++
	e.cleaning = false
	if e.dirty || !e.toFree {
		return // re-dirtied, or a plain flush: stays resident
	}
	if e.referenced && !e.front {
		return // daemon eviction rescued by a touch during the write
	}
	e.state = freeListed
	v.bitvec.Clear(page)
	if e.front {
		v.pool.pushFreeFront(e.frame)
	} else {
		v.pool.pushFreeBack(e.frame)
	}
}

// Finish flushes all remaining dirty pages to disk and waits for them, so
// the program's results are durably "written back out to disk" as in the
// paper's modified benchmarks. The wait is accounted as idle time. A page
// stored to while a write-back of it was already in flight is skipped and
// is dirty again once that write lands; Pool.Recycle hands its frame to
// the backing store.
func (v *VM) Finish() {
	v.flushUser()
	for p := int64(0); p < v.allocPages; p++ {
		e := &v.pt[p]
		if e.dirty && (e.state == resident || e.state == hot) && !e.cleaning {
			v.startClean(p, false, false)
		}
	}
	if v.cleaningCount > 0 {
		v.waitIdle("final-writeback", func() bool { return v.cleaningCount == 0 })
	}
}
