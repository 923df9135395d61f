// Package stripefs implements the file-system layer of the platform: files
// whose pages are striped round-robin across all storage devices, with
// extent-based placement (contiguous file blocks on a device occupy
// contiguous device blocks, so sequential access needs no seeks). This
// mirrors the Hurricane File System configuration used in the paper.
//
// The devices are disk.Devices built for the machine's storage tier
// (hw.Params.Tier): the paper's striped disks, NVMe-like flat-latency
// devices, or a far-memory tier. The layer is tier-oblivious — batching
// and coalescing live here: Read merges the contiguous pages landing on
// one device into a single request, so a block prefetch costs one
// positional delay (or one wire request) per device, and the far-memory
// backend further batches outstanding requests per network round trip.
//
// Page contents move through the layer as []uint64 words — the VM's
// native frame format — so a transfer is one word-slice copy with no
// byte-level encoding anywhere on the I/O path.
package stripefs

import (
	"fmt"
	"sync"

	"repro/internal/disk"
	"repro/internal/fault"
	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/sim"
)

// FS is a striped file system over a fixed array of storage devices.
type FS struct {
	clock *sim.Clock
	p     hw.Params
	devs  []*disk.Device
	// next free device-local block on each device (bump allocation:
	// extents).
	nextBlock []int64
	files     []*File

	// Free lists of request-state objects and page buffers. Every I/O
	// used to allocate its completion closures and (for writes) a page
	// copy; recycling them makes the steady-state read and write paths
	// allocation-free. Single-threaded like everything else here: the
	// run's one simulator goroutine is the only pusher and popper.
	freeReadOps  *readOp
	freeSubReqs  *subReq
	freeWriteOps *writeOp
	freePageBufs [][]uint64
	// slab is the unissued rest of the last slabPages-page allocation:
	// with the free list empty, a page buffer is a slice of it rather
	// than its own allocation.
	slab []uint64

	abandonedPages int64 // prefetched pages abandoned to a later demand fault
	metrics        obs.Source
}

// metricNames is the file system's metrics table under "stripefs.", in
// readMetrics' order.
var metricNames = []string{"requeued_reads", "requeued_writes", "abandoned_prefetch_pages"}

// readMetrics is the file system's obs.Source: the demand reads and
// write-backs its devices requeued, and the prefetched pages it gave up.
func (fs *FS) readMetrics(c []int64, _ []float64) {
	var reads, writes int64
	for _, d := range fs.devs {
		n := d.Stats()
		reads += n.Requeued[disk.FaultRead]
		writes += n.Requeued[disk.Write]
	}
	copy(c, []int64{reads, writes, fs.abandonedPages})
}

// New creates a file system over p.NumDisks fresh devices of p's
// storage tier. sched applies to the disk tier only; nil means FCFS,
// matching the paper ("the disk scheduler treats prefetches the same as
// normal disk read requests").
func New(clock *sim.Clock, p hw.Params, mkSched func() disk.Scheduler) *FS {
	return NewObserved(clock, p, mkSched, nil)
}

// NewObserved is New with the run's observability sinks attached: every
// device's metrics register in o's registry and each device gets its
// own trace track ("disk 0" ... "disk N-1") on o's trace process.
func NewObserved(clock *sim.Clock, p hw.Params, mkSched func() disk.Scheduler, o *obs.RunObs) *FS {
	fs := &FS{clock: clock, p: p, nextBlock: make([]int64, p.NumDisks)}
	reg := o.Registry()
	fs.metrics = obs.Source{Prefix: "stripefs.", Counters: metricNames, Fill: fs.readMetrics}
	reg.Register(&fs.metrics)
	for i := 0; i < p.NumDisks; i++ {
		var s disk.Scheduler
		if mkSched != nil {
			s = mkSched()
		}
		track := o.Thread(fmt.Sprintf("disk %d", i))
		fs.devs = append(fs.devs, disk.NewBackend(clock, p, i, s, reg, track))
	}
	fs.adopt()
	return fs
}

// SetFaults attaches a fault injector to every device (nil detaches).
func (fs *FS) SetFaults(inj *fault.Injector) {
	for _, d := range fs.devs {
		d.SetFaults(inj)
	}
}

// Backends exposes the underlying storage devices (for statistics).
func (fs *FS) Backends() []*disk.Device { return fs.devs }

// Params returns the hardware parameters the file system was built with.
func (fs *FS) Params() hw.Params { return fs.p }

// ---- request-state pools ------------------------------------------------

// The pools are per-FS free lists: single-threaded push/pop with no
// locking on the I/O path. Each run builds a fresh FS, so without help
// every run would re-allocate its peak working set of request objects
// from scratch; the package-level recycler below carries retired free
// lists across FS instances. Donation (Recycle) and adoption (adopt,
// at construction) each take one mutex operation per run — the per-I/O
// path stays lock-free. Pooled objects bake an fs pointer into their
// bound callbacks' receiver, so every get rebinds .fs before use.
var recycleMu sync.Mutex

var recycled struct {
	subReqs   *subReq
	readOps   *readOp
	writeOps  *writeOp
	pageBufs  [][]uint64
	pageWords int64 // element count of the recycled page buffers
}

// adopt moves everything in the recycler into this FS's free lists.
// Page buffers are size-specific: a stash recorded for another page
// size is left for an FS it fits.
func (fs *FS) adopt() {
	pw := fs.p.PageSize / 8
	recycleMu.Lock()
	fs.freeSubReqs, recycled.subReqs = recycled.subReqs, nil
	fs.freeReadOps, recycled.readOps = recycled.readOps, nil
	fs.freeWriteOps, recycled.writeOps = recycled.writeOps, nil
	if recycled.pageWords == pw {
		fs.freePageBufs, recycled.pageBufs = recycled.pageBufs, nil
	}
	recycleMu.Unlock()
}

// Recycle donates the file system's request-object free lists, and the
// unissued tail of its page-buffer slab, to a package-level stash for
// the next FS to adopt. Call it when a run is over and all I/O has
// drained; the FS remains usable afterwards (its pools are simply
// empty). Live requests are never on a free list, so nothing shared
// escapes.
func (fs *FS) Recycle() {
	recycleMu.Lock()
	if fs.freeSubReqs != nil {
		tail := fs.freeSubReqs
		for tail.next != nil {
			tail = tail.next
		}
		tail.next = recycled.subReqs
		recycled.subReqs, fs.freeSubReqs = fs.freeSubReqs, nil
	}
	if fs.freeReadOps != nil {
		tail := fs.freeReadOps
		for tail.next != nil {
			tail = tail.next
		}
		tail.next = recycled.readOps
		recycled.readOps, fs.freeReadOps = fs.freeReadOps, nil
	}
	if fs.freeWriteOps != nil {
		tail := fs.freeWriteOps
		for tail.next != nil {
			tail = tail.next
		}
		tail.next = recycled.writeOps
		recycled.writeOps, fs.freeWriteOps = fs.freeWriteOps, nil
	}
	pw := fs.p.PageSize / 8
	for ; int64(len(fs.slab)) >= pw; fs.slab = fs.slab[pw:] {
		fs.freePageBufs = append(fs.freePageBufs, fs.slab[:pw:pw])
	}
	if len(fs.freePageBufs) > 0 {
		if recycled.pageWords != pw {
			recycled.pageBufs, recycled.pageWords = nil, pw
		}
		recycled.pageBufs = append(recycled.pageBufs, fs.freePageBufs...)
		fs.freePageBufs = nil
	}
	recycleMu.Unlock()
}

func (fs *FS) getReadOp() *readOp {
	op := fs.freeReadOps
	if op == nil {
		return &readOp{fs: fs}
	}
	fs.freeReadOps = op.next
	op.next = nil
	op.fs = fs
	return op
}

func (fs *FS) putReadOp(op *readOp) {
	op.file, op.dst, op.arrived, op.failed, op.done = nil, nil, nil, nil, nil
	op.next = fs.freeReadOps
	fs.freeReadOps = op
}

// getSubReq returns a sub-request with its completion callbacks already
// bound: the method values are created once per pooled object, not once
// per I/O.
func (fs *FS) getSubReq() *subReq {
	s := fs.freeSubReqs
	if s == nil {
		s = &subReq{fs: fs}
		s.deliverFn = s.deliver
		s.abandonFn = s.abandon
		return s
	}
	fs.freeSubReqs = s.next
	s.next = nil
	s.fs = fs
	return s
}

func (fs *FS) putSubReq(s *subReq) {
	s.op = nil // a stale disk callback now faults loudly instead of corrupting a recycled op
	s.next = fs.freeSubReqs
	fs.freeSubReqs = s
}

func (fs *FS) getWriteOp() *writeOp {
	w := fs.freeWriteOps
	if w == nil {
		w = &writeOp{fs: fs}
		w.deliverFn = w.deliver
		return w
	}
	fs.freeWriteOps = w.next
	w.next = nil
	w.fs = fs
	return w
}

func (fs *FS) putWriteOp(w *writeOp) {
	w.file, w.buf, w.done = nil, nil, nil
	w.next = fs.freeWriteOps
	fs.freeWriteOps = w
}

// slabPages is how many page buffers one allocation yields.
const slabPages = 64

func (fs *FS) getPageBuf() []uint64 {
	if n := len(fs.freePageBufs); n > 0 {
		buf := fs.freePageBufs[n-1]
		fs.freePageBufs = fs.freePageBufs[:n-1]
		return buf
	}
	pw := int(fs.p.PageSize / 8)
	if len(fs.slab) < pw {
		fs.slab = make([]uint64, slabPages*pw)
	}
	buf := fs.slab[:pw:pw]
	fs.slab = fs.slab[pw:]
	return buf
}

func (fs *FS) putPageBuf(buf []uint64) {
	fs.freePageBufs = append(fs.freePageBufs, buf)
}

// A File is a striped, extent-allocated file. Page p of the file lives on
// disk p mod D at disk-local block base[p mod D] + p div D.
type File struct {
	fs    *FS
	name  string
	pages int64
	base  []int64 // starting block on each disk

	// Backing contents, one word slice per file page; nil means all-zero.
	// This is the "data on disk": reads copy out of it, writes copy in.
	store     [][]uint64
	discarded bool // Discard handed the contents back; see checkLive

	// Request tag for multi-tenant QoS: the issuing tenant's
	// prefetch-priority class, stamped onto every request for this file.
	// The zero value (Gold) is what single-tenant runs use and changes
	// nothing.
	class disk.Class
}

// Create allocates a file of the given number of pages, laid out in one
// extent per disk.
func (fs *FS) Create(name string, pages int64) (*File, error) {
	if pages <= 0 {
		return nil, fmt.Errorf("stripefs: file %q needs a positive size, got %d pages", name, pages)
	}
	d := int64(fs.p.NumDisks)
	perDisk := (pages + d - 1) / d
	f := &File{fs: fs, name: name, pages: pages, base: make([]int64, d), store: make([][]uint64, pages)}
	for i := int64(0); i < d; i++ {
		f.base[i] = fs.nextBlock[i]
		fs.nextBlock[i] += perDisk
	}
	fs.files = append(fs.files, f)
	return f, nil
}

// Name returns the file's name.
func (f *File) Name() string { return f.name }

// SetTag stamps every subsequent request issued for this file with the
// issuing tenant's prefetch-priority class, so a QoS disk scheduler can
// order prefetches by class.
func (f *File) SetTag(class disk.Class) { f.class = class }

// Pages returns the file's length in pages.
func (f *File) Pages() int64 { return f.pages }

// locate maps a file page to (disk, disk-local block).
func (f *File) locate(page int64) (diskID int, block int64) {
	d := int64(f.fs.p.NumDisks)
	diskID = int(page % d)
	block = f.base[diskID] + page/d
	return
}

// DiskOf returns the disk a file page is striped onto.
func (f *File) DiskOf(page int64) int {
	d, _ := f.locate(page)
	return d
}

// QueueLenOf returns the current request-queue depth of the disk a page
// is striped onto. The OS consults it to drop prefetches when the disk
// subsystem is overloaded.
func (f *File) QueueLenOf(page int64) int {
	d, _ := f.locate(page)
	return f.fs.devs[d].QueueLen()
}

// Discard ends the file's life: every backing buffer goes to the FS's
// free list, where the next write-back (and, after Recycle, the next FS)
// takes it without allocating or zeroing. Setting or peeking a page
// afterwards panics. A read still in flight resolves as for a
// never-written page, a write-back still in flight completes on
// schedule with its buffer going straight back to the free list, and a
// later Write is charged its simulated time but carries no bytes.
func (f *File) Discard() {
	for p, buf := range f.store {
		if buf != nil {
			f.fs.putPageBuf(buf)
			f.store[p] = nil
		}
	}
	f.discarded = true
}

func (f *File) checkLive() {
	if f.discarded {
		panic(fmt.Sprintf("stripefs: file %q used after Discard", f.name))
	}
}

// storeBufFor returns the page buffer installed as the backing contents
// of page, reusing the existing one when present. Its words are stale
// (recycled buffers are not zeroed): the caller writes every one.
func (f *File) storeBufFor(page int64) []uint64 {
	f.checkLive()
	buf := f.store[page]
	if buf == nil {
		buf = f.fs.getPageBuf()
		f.store[page] = buf
	}
	return buf
}

// SetPage installs the backing contents of a page from raw bytes
// (little-endian words) without simulated I/O. It is how experiments
// pre-initialize input files ("the data now comes from disk"); data may
// be shorter than a page, the rest is zero. The slice is copied.
func (f *File) SetPage(page int64, data []byte) {
	f.check(page, 1)
	if int64(len(data)) > f.fs.p.PageSize {
		panic(fmt.Sprintf("stripefs: page data %d B exceeds page size %d", len(data), f.fs.p.PageSize))
	}
	buf := f.storeBufFor(page)
	for i := range buf {
		buf[i] = 0
	}
	for i, c := range data {
		buf[i>>3] |= uint64(c) << uint(8*(i&7))
	}
}

// SetPageWords is SetPage for word-formatted data, the layer's native
// page format. The slice is copied; only the tail past it is zeroed.
func (f *File) SetPageWords(page int64, data []uint64) {
	f.check(page, 1)
	if int64(len(data)) > f.fs.p.PageSize/8 {
		panic(fmt.Sprintf("stripefs: page data %d words exceeds page size %d", len(data), f.fs.p.PageSize))
	}
	buf := f.storeBufFor(page)
	n := copy(buf, data)
	for i := n; i < len(buf); i++ {
		buf[i] = 0
	}
}

// PeekPage returns the current backing contents of a page as words (nil
// means all-zero). The caller must not mutate or retain the result: the
// buffer is recycled when the page is next written.
func (f *File) PeekPage(page int64) []uint64 {
	f.check(page, 1)
	f.checkLive()
	return f.store[page]
}

func (f *File) check(page, n int64) {
	if page < 0 || n < 0 || page+n > f.pages {
		panic(fmt.Sprintf("stripefs: access [%d,%d) outside file %q of %d pages", page, page+n, f.name, f.pages))
	}
}

// readOp is the shared state of one File.Read call: the callbacks and
// the count of unresolved sub-requests. Pooled on the FS free list.
type readOp struct {
	fs        *FS
	file      *File
	dst       func(page int64) []uint64
	arrived   func(page int64)
	failed    func(page int64)
	done      func()
	remaining int
	next      *readOp
}

// complete resolves one sub-request; the last one fires done and recycles
// the op. Each sub-request resolves through exactly one of Done/Failed
// (the disk's contract), so remaining reaches zero exactly once.
func (op *readOp) complete() {
	op.remaining--
	if op.remaining > 0 {
		return
	}
	done := op.done
	op.fs.putReadOp(op)
	if done != nil {
		done()
	}
}

// subReq is one disk's share of a striped read: count pages starting at
// file page first, every step-th page. Pooled, with its disk callbacks
// bound once at allocation.
type subReq struct {
	fs    *FS
	op    *readOp
	first int64
	count int64
	step  int64 // page stride on one disk = number of disks

	deliverFn func()
	abandonFn func()
	next      *subReq
}

// deliver copies the transferred pages out of the backing store into the
// caller's buffers and resolves the sub-request.
func (s *subReq) deliver() {
	op := s.op
	if op == nil {
		panic("stripefs: read sub-request resolved twice")
	}
	f := op.file
	for i := int64(0); i < s.count; i++ {
		p := s.first + i*s.step
		buf := op.dst(p)
		if src := f.store[p]; src != nil {
			copy(buf, src)
		} else {
			for j := range buf {
				buf[j] = 0
			}
		}
		if op.arrived != nil {
			op.arrived(p)
		}
	}
	s.fs.putSubReq(s)
	op.complete()
}

// abandon gives up a prefetch sub-request whose retry budget ran out:
// failed(p) runs for each lost page and the pages count as resolved.
func (s *subReq) abandon() {
	op := s.op
	if op == nil {
		panic("stripefs: read sub-request resolved twice")
	}
	s.fs.abandonedPages += s.count
	if op.failed != nil {
		for i := int64(0); i < s.count; i++ {
			op.failed(s.first + i*s.step)
		}
	}
	s.fs.putSubReq(s)
	op.complete()
}

// Read issues asynchronous reads of file pages [page, page+n). When a
// page's disk transfer completes its words are copied into the buffer
// returned by dst(page) and then arrived(page), if non-nil, is invoked.
// Contiguous pages that land on the same disk are coalesced into a
// single request so a block prefetch of k pages costs one positional
// delay per disk, not per page.
//
// done, if non-nil, runs exactly once, when every page has *resolved* —
// arrived, or (prefetch reads only) been abandoned. Under fault
// injection a demand read must not fail — the faulting CPU is stalled on
// the data — so it goes with a nil Failed and its device requeues it
// until it succeeds. Hints are non-binding, so a prefetch sub-request
// whose retry budget runs out is abandoned: failed(p), if non-nil, runs
// for each lost page ("stripefs.abandoned_prefetch_pages"), no data is
// copied, and the pages count as resolved. The caller recovers later
// through the normal demand-fault path.
//
// All request state comes from the FS pools, so a steady-state read —
// faulted or not — allocates nothing.
func (f *File) Read(page, n int64, kind disk.Kind, dst func(page int64) []uint64, arrived func(page int64), failed func(page int64), done func()) {
	f.check(page, n)
	if n == 0 {
		if done != nil {
			done()
		}
		return
	}
	fs := f.fs
	op := fs.getReadOp()
	op.file, op.dst, op.arrived, op.failed, op.done = f, dst, arrived, failed, done
	// Per disk, the file pages in [page, page+n) form one contiguous run
	// of disk-local blocks, so each disk gets at most one request. No
	// completion can run before the loop finishes (the disks signal
	// through the simulated clock), so remaining is fully accumulated
	// before the first decrement.
	d := int64(fs.p.NumDisks)
	for dd := int64(0); dd < d; dd++ {
		first := page + ((dd-page%d)%d+d)%d // first page ≥ page on disk dd
		if first >= page+n {
			continue
		}
		count := (page + n - first + d - 1) / d
		_, startBlock := f.locate(first)
		op.remaining++
		s := fs.getSubReq()
		s.op, s.first, s.count, s.step = op, first, count, d
		req := disk.Request{Block: startBlock, Pages: count, Kind: kind, Done: s.deliverFn, Class: f.class}
		if kind == disk.PrefetchRead {
			req.Failed = s.abandonFn
		}
		fs.devs[dd].Submit(req)
	}
}

// writeOp is the state of one in-flight page write-back: the captured
// page contents. Pooled, with its disk callback bound once at
// allocation. The completion callback receives the page number, so one
// bound-once method value per caller serves every write-back (the VM's
// zero-alloc clean path depends on this).
type writeOp struct {
	fs   *FS
	file *File
	page int64
	buf  []uint64
	done func(page int64)

	deliverFn func()
	next      *writeOp
}

// deliver installs the captured contents as the page's backing store,
// recycling the displaced buffer, and fires done.
func (w *writeOp) deliver() {
	f := w.file
	if f == nil {
		panic("stripefs: write resolved twice")
	}
	fs := w.fs
	if old := f.store[w.page]; old != nil {
		fs.putPageBuf(old)
	}
	if !f.discarded {
		f.store[w.page] = w.buf
	} else if w.buf != nil {
		fs.putPageBuf(w.buf)
	}
	w.buf = nil
	done, page := w.done, w.page
	fs.putWriteOp(w)
	if done != nil {
		done(page)
	}
}

// Write issues an asynchronous write-back of one page of words. The
// source buffer is captured immediately (the frame may be reused right
// away); done runs at transfer completion with the page that finished,
// so callers can share one completion function across every write-back
// instead of closing over the page. Dirty data must reach the platter,
// so the write-back goes with a nil Failed and its device requeues it
// until it succeeds; the backing store only changes then. On a
// discarded file the write takes its disk time and copies nothing.
func (f *File) Write(page int64, src []uint64, done func(page int64)) {
	f.check(page, 1)
	fs := f.fs
	w := fs.getWriteOp()
	var buf []uint64
	if !f.discarded {
		buf = fs.getPageBuf()
		n := copy(buf, src)
		for i := n; i < len(buf); i++ {
			buf[i] = 0
		}
	}
	w.file, w.page, w.buf, w.done = f, page, buf, done
	dev, block := f.locate(page)
	fs.devs[dev].Submit(disk.Request{Block: block, Pages: 1, Kind: disk.Write, Done: w.deliverFn, Class: f.class})
}
