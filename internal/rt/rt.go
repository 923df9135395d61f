// Package rt implements the run-time layer of the paper (§2.2.2, §2.4):
// a thin user-level library between the compiled application and the
// operating system. It registers with the OS to share the residency
// bit-vector page and uses it to filter the prefetches the compiler
// inserted: a prefetch whose pages are all believed resident is dropped
// without a system call, at roughly 1% of the cost. For block prefetches
// it checks pages until the first one not in memory and passes all
// remaining pages to the OS, so at most one system call is made per block.
//
// The layer can be disabled to reproduce Figure 4(c), in which case every
// compiler-inserted prefetch goes straight to the OS.
package rt

import (
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/vm"
)

// Stats counts run-time-layer activity. InsertedPages is the denominator
// of Figure 4(b)'s right-hand column: every page named by a
// compiler-inserted prefetch that reached the layer.
type Stats struct {
	InsertedCalls int64 // compiler-inserted prefetch/release call sites executed
	InsertedPages int64 // pages named by those prefetches
	FilteredPages int64 // pages dropped at user level (believed resident)
	IssuedCalls   int64 // system calls actually made
	IssuedPages   int64 // prefetch pages passed to the OS
	ReleasePages  int64 // release pages passed through (never filtered)
	BudgetDropped int64 // prefetch pages dropped at user level: hint budget exhausted
}

// UnnecessaryInsertedFrac returns the fraction of compiler-inserted
// prefetch pages that the layer filtered as unnecessary — the right-hand
// column of Figure 4(b).
func (s Stats) UnnecessaryInsertedFrac() float64 {
	if s.InsertedPages == 0 {
		return 0
	}
	return float64(s.FilteredPages) / float64(s.InsertedPages)
}

// metricNames is the layer's metrics table, in readMetrics' order.
var metricNames = []string{
	"rt.inserted_calls", "rt.inserted_pages", "rt.filtered_pages",
	"rt.issued_calls", "rt.issued_pages", "rt.release_pages", "rt.budget_dropped",
}

// readMetrics is the layer's obs.Source: the filter path increments the
// plain Stats fields directly (the layer runs on its run's single
// goroutine), and the registry reads them here.
func (l *Layer) readMetrics(c []int64, _ []float64) {
	n := &l.n
	copy(c, []int64{n.InsertedCalls, n.InsertedPages, n.FilteredPages,
		n.IssuedCalls, n.IssuedPages, n.ReleasePages, n.BudgetDropped})
}

// Layer is one application's run-time layer instance.
type Layer struct {
	vm      *vm.VM
	bv      *vm.BitVector
	enabled bool
	// filterCheck caches Params().FilterCheckTime so the single-page
	// fast path doesn't re-read the parameter struct per hint.
	filterCheck sim.Time
	// budget is the number of prefetch pages the layer may still pass to
	// the OS; -1 means unlimited (the single-tenant default). A
	// multi-tenant scheduler refills it per scheduling quantum so that no
	// tenant's hint stream can monopolize the shared disk queues: once
	// exhausted, prefetch hints are dropped at user level (counted in
	// BudgetDropped) while releases still pass through — releases free
	// shared memory and must never be throttled.
	budget  int64
	n       Stats
	metrics obs.Source
}

// Register attaches a run-time layer to an address space, sharing the OS
// bit-vector page. If enabled is false the layer becomes a pass-through
// (the Figure 4(c) configuration). Its metrics register nowhere;
// RegisterObserved shares a registry with the rest of the system.
func Register(v *vm.VM, enabled bool) *Layer {
	return RegisterObserved(v, enabled, nil)
}

// RegisterObserved is Register with the layer's metrics registered in
// reg ("rt.*"); nil registers nowhere.
func RegisterObserved(v *vm.VM, enabled bool, reg *obs.Registry) *Layer {
	l := &Layer{vm: v, bv: v.BitVector(), enabled: enabled,
		filterCheck: v.Params().FilterCheckTime, budget: -1}
	l.metrics = obs.Source{Counters: metricNames, Fill: l.readMetrics}
	reg.Register(&l.metrics)
	return l
}

// SetBudget sets the remaining prefetch-page budget; -1 (the default)
// disables budgeting entirely.
func (l *Layer) SetBudget(n int64) { l.budget = n }

// spend consumes budget for n prefetch pages about to be issued and
// reports whether the issue may proceed. A block spends as a unit: it
// proceeds if any budget remains (the balance may go briefly negative)
// so that hint coalescing is not defeated by an unlucky boundary.
func (l *Layer) spend(n int64) bool {
	if l.budget < 0 {
		return true
	}
	if l.budget == 0 {
		l.n.BudgetDropped += n
		return false
	}
	l.budget -= n
	if l.budget < 0 {
		l.budget = 0
	}
	return true
}

// Enabled reports whether filtering is active.
func (l *Layer) Enabled() bool { return l.enabled }

// Stats returns a snapshot of the layer's counters.
func (l *Layer) Stats() Stats { return l.n }

// Prefetch handles a compiler-inserted prefetch of n pages at page.
func (l *Layer) Prefetch(page, n int64) { l.PrefetchRelease(page, n, 0, 0) }

// Prefetch1 handles the single-page, no-release prefetch — the shape
// the executor's compiled kernels issue once per iteration in
// hint-dense inner loops. It is observably identical to
// PrefetchRelease(page, 1, 0, 0) — same counters, same filter charge,
// same syscall decision — with the general block-scan machinery
// specialized down to one bit test.
func (l *Layer) Prefetch1(page int64) {
	l.n.InsertedCalls++
	l.n.InsertedPages++
	if !l.enabled {
		if !l.spend(1) {
			return
		}
		l.n.IssuedCalls++
		l.n.IssuedPages++
		l.vm.PrefetchRelease(page, 1, 0, 0)
		return
	}
	l.vm.AddUserTimeN(l.filterCheck, 1)
	if l.bv.Get(page) {
		l.n.FilteredPages++
		return
	}
	if !l.spend(1) {
		return
	}
	l.n.IssuedCalls++
	l.n.IssuedPages++
	l.bv.Set(page)
	l.vm.PrefetchRelease(page, 1, 0, 0)
}

// Release handles a compiler-inserted release of n pages at page.
// Releases are never filtered: the layer cannot know better than the
// compiler that the data is dead, and the OS must clear the bits.
func (l *Layer) Release(page, n int64) { l.PrefetchRelease(0, 0, page, n) }

// PrefetchRelease handles a bundled compiler call (prefetch_release_block
// in Figure 2): prefetch [pfPage, pfPage+pfN), release [relPage,
// relPage+relN), with at most one system call.
func (l *Layer) PrefetchRelease(pfPage, pfN, relPage, relN int64) {
	l.n.InsertedCalls++
	l.n.InsertedPages += pfN

	if !l.enabled {
		if pfN > 0 && !l.spend(pfN) {
			pfPage, pfN = 0, 0
			if relN == 0 {
				return
			}
		}
		l.n.IssuedCalls++
		l.n.IssuedPages += pfN
		l.n.ReleasePages += relN
		l.vm.PrefetchRelease(pfPage, pfN, relPage, relN)
		return
	}

	// Check pages until one is found that is not in memory; everything
	// before it is filtered, everything from it on is passed through.
	// NextClear scans the vector a word at a time; the simulated cost is
	// still one FilterCheckTime per page the per-page loop would have
	// inspected — the filtered run plus the first absent page, if any —
	// batched into a single charge.
	p := pfPage
	end := pfPage + pfN
	if pfN > 0 {
		p = l.bv.NextClear(pfPage, end)
		checked := pfN
		if p < end {
			checked = p - pfPage + 1
		}
		l.vm.AddUserTimeN(l.vm.Params().FilterCheckTime, checked)
	}
	l.n.FilteredPages += p - pfPage

	if p == end && relN == 0 {
		return // entire prefetch filtered, nothing to release: no syscall
	}

	issueN := end - p
	if issueN > 0 && !l.spend(issueN) {
		p, issueN = 0, 0
		if relN == 0 {
			return
		}
	}
	l.n.IssuedCalls++
	l.n.IssuedPages += issueN
	l.n.ReleasePages += relN
	// Set the bits at issue time, as the paper specifies. If the OS drops
	// the prefetch the bit is merely stale: the page faults on use, which
	// is always safe, and the OS re-clears bits on reclaim.
	l.bv.SetRange(p, issueN)
	l.vm.PrefetchRelease(p, issueN, relPage, relN)
}
