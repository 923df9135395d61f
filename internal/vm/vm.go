// Package vm implements the operating-system half of the paper: a paged
// virtual memory system extended with non-binding prefetch and release
// hints. The application sees a flat virtual address space backed by a
// striped file ("mapped file I/O": the data comes from disk). Demand
// faults stall the application for the full disk latency; prefetch hints
// start asynchronous reads and are dropped when no memory is free; release
// hints unmap pages (writing them back if dirty) and put their frames at
// the head of the free list; a pageout daemon with a clock (second-chance)
// hand keeps the free list stocked; and a bit-vector page shared with the
// run-time layer tracks believed residency.
//
// Physical memory lives in a Pool that many address spaces can share
// (the multi-tenant server), with per-tenant residency quotas and
// fair-share reclaim; a single run owns a private pool and behaves
// exactly as the original single-tenant memory manager did.
package vm

import (
	"fmt"
	"math/bits"

	"repro/internal/disk"
	"repro/internal/fault"
	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stripefs"
)

// pageState is the residency state of one virtual page.
type pageState uint8

const (
	// unmapped: not in memory; a touch is a major fault.
	unmapped pageState = iota
	// inTransit: a disk read (fault or prefetch) is in flight.
	inTransit
	// resident: mapped to a frame holding valid data, but not yet
	// accessed this residency — the first touch still classifies the
	// page (prefetched hit or fault) before it becomes hot.
	resident
	// freeListed: still mapped and holding valid data, but on the free
	// list — reclaimable at any moment, rescuable by a touch or prefetch.
	freeListed
	// hot: resident and already touched. A separate state, redundant
	// with resident+touched, so that Load/Store decide "no kernel work
	// needed" with a single byte compare — the hottest branch in the
	// simulator. Invariant: state == hot ⇔ state ∈ {resident, hot} ∧
	// touched; everywhere outside Load/Store treats hot exactly like
	// resident.
	hot
)

// pte is a page-table entry. The classification flags implement the
// Figure 4(a) accounting described in stats.go.
type pte struct {
	state      pageState
	frame      int32
	dirty      bool
	referenced bool
	cleaning   bool // write-back in flight for this page's frame
	toFree     bool // after cleaning completes, move to the free list
	front      bool // ...at the head of the free list (release path)
	touched    bool // accessed since this residency began
	prefetched bool // a prefetch targeted the current/upcoming residency
}

// frameInfo describes one physical page frame.
type frameInfo struct {
	vpage      int64 // current mapping, -1 if none
	owner      *VM   // address space of the mapping, nil if never mapped
	prev, next int32 // free-list neighbours while onFree, -1 at either end
	onFree     bool  // currently a member of the free list
}

// VM is one simulated address space: a page table over a backing file,
// served by a frame Pool it may share with other address spaces.
type VM struct {
	clock *sim.Clock
	p     hw.Params
	file  *stripefs.File
	pool  *Pool
	tid   int32 // tenant id: index among the pool's address spaces

	pageShift uint
	pageMask  int64
	pageWords int64 // PageSize / 8
	wordShift uint  // pageShift - 3: frame index → word index

	pt    []pte
	words []uint64 // the pool's frame storage (aliased for the hot path)

	cleaningCount  int64 // this space's write-backs in flight
	inTransitCount int64 // this space's reads in flight

	// faultPage is the page of the open touch episode — a fault already
	// charged and classified whose read has not landed — or -1.
	faultPage int64

	// Lazy user-time accounting: the executor adds op counts; they are
	// converted to clock time at every kernel crossing.
	pendingUserOps int64

	bitvec *BitVector

	// Allocation bump pointer, in pages.
	allocPages int64
	regions    []Region

	// Residency quota (frames; 0 = unlimited) and current residency,
	// maintained by the pool at every frame transition.
	quota    int64
	resident int64

	// Prefetch-priority class and the drop thresholds derived from it.
	// The defaults are the Gold (paper-original) thresholds.
	class       disk.Class
	pfQueueMax  int
	pfFreeFloor int64

	// Fault plane (nil injects nothing): synthetic memory-pressure spikes
	// that drop otherwise-acceptable prefetch hints.
	flt *fault.Injector

	// I/O callbacks bound once at construction so the hint, fault, and
	// write-back paths hand stripefs the same method values on every
	// request — a fresh closure per request would allocate.
	dstFn     func(page int64) []uint64
	arrivedFn func(page int64)
	abandonFn func(page int64)
	cleanedFn func(page int64)

	// Hot-path accounting (the exported views themselves, as plain
	// fields; see stats.go), the metrics source that reads them, and
	// trace tracks. The tracks are nil when tracing is off: each emission
	// is then one nil check. Last in the struct so the frequently-touched
	// fields above keep small offsets.
	n        Stats
	t        TimeStats
	metrics  obs.Source
	trCPU    *obs.Track // kernel/user/idle spans, one per VM core
	trFaults *obs.Track // fault-classification instants
}

// Region records one named allocation in the address space.
type Region struct {
	Name  string
	Base  int64 // byte address of the first page
	Bytes int64
	Pages int64
}

// New creates a virtual memory system of p.Frames() frames over the given
// backing file. The virtual address space is the file: file page i is
// virtual page i. Its metrics register in a private registry and tracing
// is off; NewObserved shares both with the rest of the system.
func New(clock *sim.Clock, p hw.Params, file *stripefs.File) *VM {
	return NewObserved(clock, p, file, nil)
}

// NewObserved is New with the run's observability sinks attached: the
// VM's metrics source registers in o's registry and its spans and
// fault-classification instants go to tracks of o's trace process.
// The address space gets a private frame pool.
func NewObserved(clock *sim.Clock, p hw.Params, file *stripefs.File, o *obs.RunObs) *VM {
	return NewPool(clock, p).Attach(file, o)
}

// Attach creates an address space over file served by this pool. The
// tenant starts with no residency quota (unlimited) and the Gold
// prefetch class; set both before running it. Observability sinks work
// as in NewObserved; in multi-tenant servers each tenant usually gets
// its own registry and trace process so metric names do not collide.
func (pl *Pool) Attach(file *stripefs.File, o *obs.RunObs) *VM {
	p := pl.p
	v := &VM{
		clock:     pl.clock,
		p:         p,
		file:      file,
		pool:      pl,
		tid:       int32(len(pl.vms)),
		pageShift: uint(bits.TrailingZeros64(uint64(p.PageSize))),
		pageMask:  p.PageSize - 1,
		pageWords: p.PageSize / 8,
		wordShift: wordShiftOf(p.PageSize),
		pt:        make([]pte, file.Pages()),
		words:     pl.words,
		faultPage: -1,
	}
	v.dstFn = v.framePageWords
	v.arrivedFn = v.finishRead
	v.abandonFn = v.abandonPrefetch
	v.cleanedFn = v.cleaned
	v.pfQueueMax = maxPrefetchQueue
	v.pfFreeFloor = 2
	for i := range v.pt {
		v.pt[i].frame = -1
	}
	v.metrics = obs.Source{Counters: metricNames, Fill: v.readMetrics}
	o.Registry().Register(&v.metrics)
	v.trCPU = o.Thread("cpu")
	v.trFaults = o.Thread("faults")
	v.bitvec = newBitVector(file.Pages())
	pl.vms = append(pl.vms, v)
	return v
}

// SetFaults attaches a fault injector (nil detaches). The VM consults it
// for synthetic memory-pressure spikes that drop prefetch hints; hints
// are non-binding, so dropping them is always safe.
func (v *VM) SetFaults(inj *fault.Injector) { v.flt = inj }

// Params returns the hardware parameters.
func (v *VM) Params() hw.Params { return v.p }

// Clock returns the simulated clock.
func (v *VM) Clock() *sim.Clock { return v.clock }

// Pool returns the frame pool serving this address space.
func (v *VM) Pool() *Pool { return v.pool }

// SetQuota sets this tenant's residency quota in frames; 0 means
// unlimited (the single-tenant default). A tenant holding more frames
// than its quota is reclaimed first by the pool's fair-share sweeps;
// tenants at or under quota are protected while any tenant is over.
func (v *VM) SetQuota(frames int64) { v.pool.setQuota(v, frames) }

// ResidentFrames returns the number of pool frames this tenant currently
// holds (mapped and not on the free list; in-transit reads count, since
// their frames are committed).
func (v *VM) ResidentFrames() int64 { return v.resident }

// overQuota reports whether the tenant holds more frames than its quota
// allows (never true for quota 0 = unlimited).
func (v *VM) overQuota() bool { return v.quota > 0 && v.resident > v.quota }

// SetClass sets this tenant's prefetch-priority class, which picks the
// OS's prefetch drop thresholds — Gold keeps the paper's originals;
// Silver and BestEffort give up earlier under queue and memory pressure,
// so best-effort prefetches are the first dropped — and tags the
// tenant's disk requests so a QoS scheduler can order them.
func (v *VM) SetClass(c disk.Class) {
	v.class = c
	switch c {
	case disk.Silver:
		v.pfQueueMax = maxPrefetchQueue * 2 / 3
		v.pfFreeFloor = v.p.LowWater() / 2
		if v.pfFreeFloor < 4 {
			v.pfFreeFloor = 4
		}
	case disk.BestEffort:
		v.pfQueueMax = maxPrefetchQueue / 3
		v.pfFreeFloor = v.p.LowWater()
	default:
		v.pfQueueMax = maxPrefetchQueue
		v.pfFreeFloor = 2
	}
	v.file.SetTag(c)
}

// Class returns the tenant's prefetch-priority class.
func (v *VM) Class() disk.Class { return v.class }

// BitVector returns the shared residency page (the run-time layer calls
// this at registration).
func (v *VM) BitVector() *BitVector { return v.bitvec }

// Stats returns a snapshot of the event counters. MajorFaults and
// PrefetchPagesSeen are derived sums, and DaemonScans is pool-wide; all
// three are filled on the returned copy only.
func (v *VM) Stats() Stats {
	s := v.n
	s.MajorFaults = s.PrefetchedFaults + s.NonPrefetchedFault
	s.PrefetchPagesSeen = s.PrefetchIssued + s.PrefetchRescues + s.PrefetchUnneeded + s.PrefetchDropped
	s.DaemonScans = v.pool.scans
	return s
}

// Times returns a snapshot of the time breakdown, with any pending user
// compute folded in.
func (v *VM) Times() TimeStats {
	t := v.t
	t.User += sim.Time(v.pendingUserOps) * v.p.OpTime
	return t
}

// ProfileSnapshot returns the observation tuple the profiling pass
// wraps around each instrumented access: the simulated time as the
// program sees it (the clock plus user operations accumulated since the
// last kernel crossing) and the running major-fault, minor-fault, and
// prefetched-hit classification tallies. It reads plain fields and is
// safe on the instrumented hot path.
func (v *VM) ProfileSnapshot() (now, majorFaults, minorFaults, hits int64) {
	now = int64(v.clock.Now()) + v.pendingUserOps*int64(v.p.OpTime)
	return now, v.n.PrefetchedFaults + v.n.NonPrefetchedFault, v.n.MinorFaults, v.n.PrefetchedHits
}

// FreeFrames returns the current number of frames on the pool's free
// list.
func (v *VM) FreeFrames() int64 { return v.pool.freeCount }

// AvgFreeFrac returns the time-averaged fraction of memory on the free
// list since accounting began (Table 3). Pool-wide.
func (v *VM) AvgFreeFrac() float64 { return v.pool.AvgFreeFrac() }

// Alloc reserves a page-aligned region of the address space. Array data
// structures of the application live in these regions.
func (v *VM) Alloc(name string, bytes int64) (base int64, err error) {
	pages := v.p.PagesOf(bytes)
	if v.allocPages+pages > v.file.Pages() {
		return 0, fmt.Errorf("vm: allocating %q (%d pages) exceeds address space (%d of %d pages used)",
			name, pages, v.allocPages, v.file.Pages())
	}
	base = v.allocPages * v.p.PageSize
	v.regions = append(v.regions, Region{Name: name, Base: base, Bytes: bytes, Pages: pages})
	v.allocPages += pages
	return base, nil
}

// Regions returns the allocated regions in allocation order.
func (v *VM) Regions() []Region { return v.regions }

// AllocatedPages returns the number of pages allocated so far.
func (v *VM) AllocatedPages() int64 { return v.allocPages }

// PageOf returns the virtual page containing a byte address.
func (v *VM) PageOf(addr int64) int64 { return addr >> v.pageShift }

// AddUserOps charges n machine operations of user compute. The time is
// accumulated lazily and folded into the clock at the next kernel
// crossing, which keeps the per-element fast path cheap.
func (v *VM) AddUserOps(n int64) { v.pendingUserOps += n }

// AddUserTimeN charges n repetitions of a fixed user-mode cost in one
// call (the run-time layer's bit-vector checks). Each repetition is
// truncated to whole operations before the multiply, so a batched caller
// stays on the same simulated clock as n separate charges.
func (v *VM) AddUserTimeN(t sim.Time, n int64) {
	v.pendingUserOps += n * (int64(t) / int64(v.p.OpTime))
}

// FlushUser folds pending user compute into the simulated clock. The
// multi-tenant scheduler calls it at every slice boundary so one
// tenant's compute lands on the shared clock before the next tenant
// runs; within a single run every kernel crossing flushes implicitly.
func (v *VM) FlushUser() { v.flushUser() }

// flushUser converts pending user ops into simulated time. Every kernel
// entry calls it first so that event ordering is correct.
func (v *VM) flushUser() {
	if v.pendingUserOps == 0 {
		return
	}
	t := sim.Time(v.pendingUserOps) * v.p.OpTime
	v.pendingUserOps = 0
	v.t.User += t
	v.trCPU.Span("user", "user", v.clock.Now(), t)
	v.clock.Advance(t)
}

// chargeSys accounts system time to a TimeStats bucket and advances the
// clock, emitting a span named for the kernel operation.
func (v *VM) chargeSys(bucket *sim.Time, name, cat string, t sim.Time) {
	*bucket += t
	v.trCPU.Span(name, cat, v.clock.Now(), t)
	v.clock.Advance(t)
}

// waitIdle stalls until cond holds, accounting the wait as idle time and
// emitting an idle span.
func (v *VM) waitIdle(name string, cond func() bool) {
	start := v.clock.Now()
	d := v.clock.WaitFor(cond)
	v.t.Idle += d
	v.trCPU.Span(name, "idle", start, d)
}

// frameWords returns the storage of frame f as 8-byte words.
func (v *VM) frameWords(f int32) []uint64 {
	off := int64(f) * v.pageWords
	return v.words[off : off+v.pageWords]
}

// framePageWords returns the frame storage currently backing a virtual
// page. It is the dst callback handed to stripefs reads: while a read
// is in flight the page's mapping cannot change (only resident pages
// are evicted), so the lookup at delivery time finds the frame the
// read was issued for.
func (v *VM) framePageWords(page int64) []uint64 {
	return v.frameWords(v.pt[page].frame)
}

// invalidate severs a page's mapping when its frame is reused.
func (v *VM) invalidate(page int64) {
	e := &v.pt[page]
	if e.dirty {
		panic(fmt.Sprintf("vm: reusing frame of dirty page %d", page))
	}
	e.state = unmapped
	e.frame = -1
	e.touched = false
	e.referenced = false
	v.bitvec.Clear(page)
}
