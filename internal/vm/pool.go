package vm

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/hw"
	"repro/internal/sim"
)

// Pool is the machine's physical memory: the frame table, frame storage,
// free list, clock hand, and pageout daemon, shared by every address
// space attached to it. A single-tenant run owns a private pool (New and
// NewObserved create one implicitly), which behaves tick-for-tick like
// the pre-pool memory manager. The multi-tenant server attaches many VMs
// to one pool and gives each a residency quota; reclaim then becomes
// fair-share: while any tenant is over its quota, the clock hand passes
// over frames of tenants at or under quota, so under-quota tenants are
// protected and over-quota tenants are reclaimed first. With no quotas
// set (or a single tenant) the protected sweep never engages and the
// pool is byte-identical to the original single-run path.
type Pool struct {
	clock *sim.Clock
	p     hw.Params

	frames []frameInfo
	words  []uint64 // frame storage, Frames() × PageSize/8 words (maybe more capacity); nil once recycled

	// Free list: a doubly linked list threaded through the frames' prev
	// and next, -1 ending it. Eviction links a frame in at the tail,
	// release at the head; popFree takes the head and a rescue unlinks a
	// frame wherever it is, both in O(1).
	freeHead  int32
	freeTail  int32
	freeCount int64

	hand int32 // clock-algorithm hand over frames

	daemonScheduled bool
	daemonRunFn     func()
	scans           int64 // daemon activations (pool-wide)

	cleaningCount  int64  // write-backs in flight, all tenants
	inTransitCount int64  // reads in flight, all tenants
	ioGen          uint64 // bumped on every I/O completion

	// Time-weighted free-frame integral for Table 3's "% memory free".
	freeIntegral    float64
	lastFreeSample  sim.Time
	accountingStart sim.Time

	vms       []*VM // attached address spaces; index is the tenant id
	overQuota int   // tenants currently over their residency quota

	// Pageout watermarks, computed once at construction. hw.Params derives
	// them with floating-point math on every call, which is far too hot for
	// takeFrame's per-frame path.
	lowWater  int64
	highWater int64
}

// Frame storage outlives its pool the way stripefs's page buffers outlive
// their FS: Recycle donates it whole to this one-slot stash (the largest
// slab seen stays) and NewPool adopts it whenever it is at least the size
// needed — one mutex operation each, nothing on the I/O path. An adopted
// slab is not re-zeroed: a frame is filled whole (the read's delivery
// copies the page or zero-fills it; Preload does the same) before it is
// mapped, and nothing reads an unmapped frame.
var (
	slabMu sync.Mutex
	slab   []uint64
)

func adoptSlab(words int64) []uint64 {
	slabMu.Lock()
	if w := slab; int64(len(w)) >= words {
		slab = nil
		slabMu.Unlock()
		return w[:words]
	}
	slabMu.Unlock()
	return make([]uint64, words) // outside the lock: zeroing it takes milliseconds
}

// Recycle hands the pool's frame storage to the next pool that fits in it.
// Call it when the run is over: every address space flushed (Finish) and
// all write-backs drained — recycling with a write in flight panics. A
// page Finish left dirty (see there) is copied into its backing file
// first, at no simulated cost, so the file holds every page. The pool and
// its address spaces drop the storage; Peek and Fingerprint then read the
// file, while Load, Store, TouchAsync, LoadFast and PageSpan panic instead
// of reaching the next owner's memory. Statistics, residency counts and
// CheckInvariants stay valid.
func (pl *Pool) Recycle() {
	for _, v := range pl.vms {
		if v.cleaningCount > 0 {
			panic(fmt.Sprintf("vm: recycling %q with %d write-backs in flight", v.file.Name(), v.cleaningCount))
		}
	}
	for _, v := range pl.vms {
		for p := range v.pt {
			if e := &v.pt[p]; e.dirty {
				v.file.SetPageWords(int64(p), v.frameWords(e.frame))
				e.dirty = false
			}
		}
		v.words = nil
	}
	w := pl.words[:cap(pl.words)]
	pl.words = nil
	slabMu.Lock()
	if len(w) > len(slab) {
		slab = w
	}
	slabMu.Unlock()
}

// NewPool creates a frame pool of p.Frames() frames with every frame on
// the free list. Attach address spaces to it with Attach.
func NewPool(clock *sim.Clock, p hw.Params) *Pool {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	nf := p.Frames()
	pl := &Pool{
		clock:    clock,
		p:        p,
		frames:   make([]frameInfo, nf),
		words:    adoptSlab(nf * (p.PageSize / 8)),
		freeHead: -1,
		freeTail: -1,
	}
	pl.daemonRunFn = pl.daemonRun
	pl.lowWater = p.LowWater()
	pl.highWater = p.HighWater()
	for i := range pl.frames {
		pl.frames[i].vpage = -1
	}
	for i := int32(0); i < int32(nf); i++ {
		pl.pushFreeBack(i)
	}
	return pl
}

// Clock returns the simulated clock the pool runs on.
func (pl *Pool) Clock() *sim.Clock { return pl.clock }

// Params returns the hardware parameters the pool was built with.
func (pl *Pool) Params() hw.Params { return pl.p }

// Frames returns the pool's capacity in frames.
func (pl *Pool) Frames() int64 { return int64(len(pl.frames)) }

// FreeFrames returns the current number of frames on the free list.
func (pl *Pool) FreeFrames() int64 { return pl.freeCount }

// Tenants returns the attached address spaces in attach order.
func (pl *Pool) Tenants() []*VM { return pl.vms }

// DaemonScans returns the number of pageout-daemon activations
// (pool-wide; with one tenant this is the tenant's count).
func (pl *Pool) DaemonScans() int64 { return pl.scans }

// AvgFreeFrac returns the time-averaged fraction of memory on the free
// list since accounting began (Table 3).
func (pl *Pool) AvgFreeFrac() float64 {
	now := pl.clock.Now()
	elapsed := now - pl.accountingStart
	if elapsed == 0 {
		return float64(pl.freeCount) / float64(len(pl.frames))
	}
	integ := pl.freeIntegral + float64(pl.freeCount)*float64(now-pl.lastFreeSample)
	return integ / (float64(elapsed) * float64(len(pl.frames)))
}

// ResetAccounting zeroes the pool's free-memory integral and daemon-scan
// count (the warm-start path; meaningful for single-tenant pools).
func (pl *Pool) ResetAccounting() {
	pl.freeIntegral = 0
	pl.scans = 0
	pl.lastFreeSample = pl.clock.Now()
	pl.accountingStart = pl.clock.Now()
}

// ---- residency quotas ---------------------------------------------------

// residentInc tracks a frame transitioning into v's resident set,
// maintaining the count of over-quota tenants incrementally.
func (pl *Pool) residentInc(v *VM) {
	v.resident++
	if v.quota > 0 && v.resident == v.quota+1 {
		pl.overQuota++
	}
}

// residentDec is residentInc's inverse.
func (pl *Pool) residentDec(v *VM) {
	if v.quota > 0 && v.resident == v.quota+1 {
		pl.overQuota--
	}
	v.resident--
}

// setQuota installs a tenant's residency quota (0 = unlimited),
// adjusting the over-quota census for the new boundary.
func (pl *Pool) setQuota(v *VM, quota int64) {
	if quota < 0 {
		panic(fmt.Sprintf("vm: negative residency quota %d", quota))
	}
	wasOver := v.overQuota()
	v.quota = quota
	if over := v.overQuota(); over != wasOver {
		if over {
			pl.overQuota++
		} else {
			pl.overQuota--
		}
	}
}

// ---- free list ----------------------------------------------------------

func (pl *Pool) sampleFree() {
	now := pl.clock.Now()
	pl.freeIntegral += float64(pl.freeCount) * float64(now-pl.lastFreeSample)
	pl.lastFreeSample = now
}

// pushFreeBack links a frame in at the tail of the free list, to be
// reused last — this is what eviction does.
func (pl *Pool) pushFreeBack(f int32) {
	if pl.enterFree(f) {
		pl.join(pl.freeTail, f)
		pl.join(f, -1)
	}
}

// pushFreeFront links a frame in at the head of the free list, to be
// reused first — this is what release does ("a good candidate for
// replacement").
func (pl *Pool) pushFreeFront(f int32) {
	if pl.enterFree(f) {
		pl.join(f, pl.freeHead)
		pl.join(-1, f)
	}
}

// enterFree counts frame f onto the free list, reporting false if it is
// already there.
func (pl *Pool) enterFree(f int32) bool {
	fi := &pl.frames[f]
	if fi.onFree {
		return false
	}
	if fi.vpage >= 0 {
		pl.residentDec(fi.owner)
	}
	pl.sampleFree()
	fi.onFree = true
	pl.freeCount++
	return true
}

// join makes frame b follow frame a on the free list, -1 standing for
// either end.
func (pl *Pool) join(a, b int32) {
	if a >= 0 {
		pl.frames[a].next = b
	} else {
		pl.freeHead = b
	}
	if b >= 0 {
		pl.frames[b].prev = a
	} else {
		pl.freeTail = a
	}
}

// unlinkFree takes frame f off the free list, wherever it is on it.
func (pl *Pool) unlinkFree(f int32) {
	fi := &pl.frames[f]
	pl.join(fi.prev, fi.next)
	pl.sampleFree()
	fi.onFree = false
	pl.freeCount--
}

// popFree removes and returns the frame at the head of the free list, or
// -1 when the list is empty.
func (pl *Pool) popFree() int32 {
	f := pl.freeHead
	if f >= 0 {
		pl.unlinkFree(f)
	}
	return f
}

// rescueFromFree takes a specific frame off the free list and back into
// its owner's resident set.
func (pl *Pool) rescueFromFree(f int32) {
	fi := &pl.frames[f]
	if !fi.onFree {
		panic("vm: rescue of frame not on free list")
	}
	pl.unlinkFree(f)
	pl.residentInc(fi.owner)
}

// ---- frame allocation ---------------------------------------------------

// takeFrame obtains a free frame mapping vpage for v, evicting
// synchronously if the free list is empty (the demand-fault path). It
// returns false only for a prefetch, which the paper's OS simply drops
// when all memory is in use.
func (pl *Pool) takeFrame(v *VM, vpage int64, prefetch bool) (int32, bool) {
	for {
		if f := pl.popFree(); f >= 0 {
			fi := &pl.frames[f]
			if old := fi.vpage; old >= 0 {
				fi.owner.invalidate(old)
				v.n.Reclaims++
			}
			fi.owner = v
			fi.vpage = vpage
			pl.residentInc(v)
			if pl.freeCount < pl.lowWater {
				pl.kickDaemon()
			}
			return f, true
		}
		if prefetch {
			return 0, false
		}
		pl.syncReclaim(v)
	}
}

// ---- pageout daemon -----------------------------------------------------

// daemonDelay is how soon after a low-water crossing the pageout daemon
// runs, and its re-arm period while it waits for write-backs to finish.
const daemonDelay = 200 * sim.Microsecond

// kickDaemon schedules a pageout-daemon pass if one is not already
// pending.
func (pl *Pool) kickDaemon() {
	if pl.daemonScheduled {
		return
	}
	pl.daemonScheduled = true
	pl.clock.Schedule(daemonDelay, pl.daemonRunFn)
}

// daemonRun is one activation of the pageout daemon: sweep the clock hand,
// giving referenced pages a second chance, moving clean unreferenced pages
// to the free list, and starting write-backs for dirty ones, until the
// free list (plus writes already in flight) reaches the high watermark.
//
// Fair share: while any tenant is over its residency quota, the first
// sweep takes victims only from over-quota tenants (frames of tenants at
// or under quota are passed over without even consuming their reference
// bit). Only if that protected sweep cannot reach the target does a
// second, unprotected sweep run — global memory pressure outranks
// quotas, so the machine never idles to protect a quota.
func (pl *Pool) daemonRun() {
	pl.daemonScheduled = false
	pl.scans++
	target := pl.highWater
	protect := pl.overQuota > 0
	budget := 2 * len(pl.frames)
	for pl.freeCount+pl.cleaningCount < target && budget > 0 {
		budget--
		pl.evictOne(protect)
	}
	if protect && pl.freeCount+pl.cleaningCount < target {
		for budget = 2 * len(pl.frames); pl.freeCount+pl.cleaningCount < target && budget > 0; budget-- {
			pl.evictOne(false)
		}
	}
	if pl.freeCount < pl.lowWater {
		// Still short: either writes are in flight (their completions
		// will refill the list) or everything was referenced; try again
		// shortly in both cases.
		pl.kickDaemon()
	}
}

// evictOne advances the clock hand one frame, applying second chance.
// With protect set, frames of tenants at or under their quota are
// skipped untouched (their reference bits survive), so only over-quota
// tenants lose pages.
func (pl *Pool) evictOne(protect bool) {
	f := pl.hand
	pl.hand++
	if int(pl.hand) == len(pl.frames) {
		pl.hand = 0
	}
	fi := &pl.frames[f]
	if fi.vpage < 0 || fi.onFree {
		return
	}
	o := fi.owner
	if protect && !o.overQuota() {
		return
	}
	e := &o.pt[fi.vpage]
	if (e.state != resident && e.state != hot) || e.cleaning {
		return
	}
	if e.referenced {
		e.referenced = false // second chance
		return
	}
	if e.dirty {
		o.startClean(fi.vpage, true, false)
		return
	}
	e.state = freeListed
	o.bitvec.Clear(fi.vpage)
	pl.pushFreeBack(e.frame)
}

// syncReclaim is the demand-fault path's last resort: the free list is
// empty, so sweep for a victim right now — protected first when quotas
// are in force, then unprotected. If every frame is pinned by in-flight
// I/O (reads filling frames, writes cleaning them), stall until some I/O
// completes and sweep again — a just-arrived prefetched page is a legal
// victim (it simply becomes a prefetched fault later). The stall is
// charged to the faulting tenant v.
func (pl *Pool) syncReclaim(v *VM) {
	for {
		protect := pl.overQuota > 0
		for budget := 2 * len(pl.frames); budget > 0 && pl.freeCount == 0; budget-- {
			pl.evictOne(protect)
		}
		if protect {
			for budget := 2 * len(pl.frames); budget > 0 && pl.freeCount == 0; budget-- {
				pl.evictOne(false)
			}
		}
		if pl.freeCount > 0 {
			return
		}
		if pl.cleaningCount == 0 && pl.inTransitCount == 0 {
			panic("vm: out of memory: no evictable pages and no I/O in flight")
		}
		gen := pl.ioGen
		v.waitIdle("memory-stall", func() bool {
			return pl.freeCount > 0 || pl.ioGen != gen
		})
		if pl.freeCount > 0 {
			return
		}
	}
}

// CheckInvariants verifies the pool-level structural invariants: the
// frame table and the owners' page tables form a bijection over mapped
// frames, the free list is well linked and agrees with its count and the
// per-frame flags, per-tenant residency counts and the over-quota census
// match the frame table, and the pool's in-flight I/O counts equal the
// sums of the tenants'. It returns the first violation found, or nil.
func (pl *Pool) CheckInvariants() error {
	var onFree, mapped int64
	for fi := range pl.frames {
		f := &pl.frames[fi]
		if f.onFree {
			onFree++
		}
		if f.vpage >= 0 {
			if f.owner == nil {
				return fmt.Errorf("vm: frame %d maps page %d with no owner", fi, f.vpage)
			}
			e := &f.owner.pt[f.vpage]
			if e.frame != int32(fi) {
				return fmt.Errorf("vm: frame %d maps page %d, whose pte points to frame %d", fi, f.vpage, e.frame)
			}
			mapped++
		}
	}
	// The free list, walked from its head for at most len(frames) steps:
	// every member is flagged onFree and its prev names the member before
	// it, the last member is freeTail, the count is freeCount, and every
	// frame flagged onFree is on it.
	var listed int64
	prev := int32(-1)
	for f := pl.freeHead; f >= 0; f = pl.frames[f].next {
		if int(f) >= len(pl.frames) || listed == int64(len(pl.frames)) {
			return fmt.Errorf("vm: free list leaves the frame table or loops: frame %d after %d members", f, listed)
		}
		if !pl.frames[f].onFree {
			return fmt.Errorf("vm: free-list member %d is not flagged onFree", f)
		}
		if p := pl.frames[f].prev; p != prev {
			return fmt.Errorf("vm: free-list link broken: frame %d has prev %d, but follows %d", f, p, prev)
		}
		prev = f
		listed++
	}
	if prev != pl.freeTail {
		return fmt.Errorf("vm: free list ends at frame %d, but freeTail=%d", prev, pl.freeTail)
	}
	if listed != pl.freeCount {
		return fmt.Errorf("vm: freeCount=%d but %d frames on the free list", pl.freeCount, listed)
	}
	if onFree != listed {
		return fmt.Errorf("vm: %d frames flagged onFree but %d on the free list", onFree, listed)
	}
	if mapped > int64(len(pl.frames)) {
		return fmt.Errorf("vm: more mapped frames (%d) than exist (%d)", mapped, len(pl.frames))
	}

	over := 0
	var transit, cleaning int64
	for _, v := range pl.vms {
		var res int64
		for fi := range pl.frames {
			f := &pl.frames[fi]
			if f.owner == v && f.vpage >= 0 && !f.onFree {
				res++
			}
		}
		if res != v.resident {
			return fmt.Errorf("vm: tenant %d resident=%d but %d frames held", v.tid, v.resident, res)
		}
		if v.overQuota() {
			over++
		}
		transit += v.inTransitCount
		cleaning += v.cleaningCount
	}
	if over != pl.overQuota {
		return fmt.Errorf("vm: overQuota census=%d but %d tenants over quota", pl.overQuota, over)
	}
	if transit != pl.inTransitCount {
		return fmt.Errorf("vm: pool inTransitCount=%d but tenants sum to %d", pl.inTransitCount, transit)
	}
	if cleaning != pl.cleaningCount {
		return fmt.Errorf("vm: pool cleaningCount=%d but tenants sum to %d", pl.cleaningCount, cleaning)
	}
	return nil
}

// wordShiftOf computes the frame-index → word-index shift for a page size.
func wordShiftOf(pageSize int64) uint {
	return uint(bits.TrailingZeros64(uint64(pageSize))) - 3
}
