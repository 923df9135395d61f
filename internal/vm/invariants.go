package vm

import "fmt"

// CheckInvariants verifies the memory manager's structural invariants:
// the pool's frame table and the page tables of every attached address
// space form a bijection over mapped frames, free-list and residency
// accounting agree with the per-frame flags, every non-zero page state
// has a frame, and in-flight I/O counts match the page table. It returns
// the first violation found, or nil.
//
// It exists so that external torture tests — in particular the
// fault-injection harness, which must show that injected disk errors,
// brownouts, and dropped prefetches never corrupt the memory manager —
// can assert the same invariants the package's own randomized tests do.
// The pool-level half (bijection, free counts, residency, quota census)
// is shared by all tenants; the per-space half below checks this
// address space's page table.
func (v *VM) CheckInvariants() error {
	if err := v.pool.CheckInvariants(); err != nil {
		return err
	}

	var transitPages int64
	for p := range v.pt {
		e := &v.pt[p]
		if e.state == inTransit {
			transitPages++
		}
		if e.state != unmapped && e.frame < 0 {
			return fmt.Errorf("vm: page %d in state %d has no frame", p, e.state)
		}
		if e.state == unmapped && e.dirty {
			return fmt.Errorf("vm: unmapped page %d is dirty", p)
		}
		if e.state != unmapped {
			fi := &v.pool.frames[e.frame]
			if fi.owner != v {
				return fmt.Errorf("vm: page %d's frame %d owned by another tenant", p, e.frame)
			}
			if fi.vpage != int64(p) {
				return fmt.Errorf("vm: page %d's frame %d maps page %d", p, e.frame, fi.vpage)
			}
			if e.state == freeListed && !fi.onFree {
				return fmt.Errorf("vm: freeListed page %d's frame not on free list", p)
			}
			if (e.state == resident || e.state == hot) && fi.onFree {
				return fmt.Errorf("vm: resident page %d's frame on free list", p)
			}
		}
		if e.state == hot && !e.touched {
			return fmt.Errorf("vm: hot page %d not marked touched", p)
		}
		if e.state == resident && e.touched {
			return fmt.Errorf("vm: touched page %d left in plain resident state", p)
		}
	}
	if transitPages != v.inTransitCount {
		return fmt.Errorf("vm: inTransitCount=%d but %d pages in transit", v.inTransitCount, transitPages)
	}

	// Residency bit-vector consistency, checkable only at exact (one page
	// per bit) granularity: a set bit must cover a mapped page. Every
	// transition to unmapped (frame reuse, dropped hint, abandoned
	// prefetch) clears the page's bit, and the run-time layer sets bits
	// only for pages it hands to the OS in the same call — which maps or
	// drops (re-clearing) each one before returning. The scan walks runs
	// of set bits via NextClear, so fully released spaces cost one word
	// read per 64 pages.
	if v.bitvec.PagesPerBit() == 1 {
		total := v.file.Pages()
		for p := int64(0); p < total; {
			q := v.bitvec.NextClear(p, total)
			for ; p < q; p++ {
				if v.pt[p].state == unmapped {
					return fmt.Errorf("vm: unmapped page %d has its residency bit set", p)
				}
			}
			p = q + 1
		}
	}
	return nil
}
