package vm

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/stripefs"
)

// newVM builds a VM with the given number of frames over an address space
// of spacePages pages.
func newVM(t testing.TB, frames, spacePages int64) (*sim.Clock, *VM) {
	t.Helper()
	p := hw.Default()
	p.MemoryBytes = frames * p.PageSize
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	c := sim.NewClock()
	fs := stripefs.New(c, p, nil)
	f, err := fs.Create("space", spacePages)
	if err != nil {
		t.Fatal(err)
	}
	return c, New(c, p, f)
}

func TestAllocRegions(t *testing.T) {
	_, v := newVM(t, 64, 256)
	ps := v.Params().PageSize
	a, err := v.Alloc("a", 10*ps)
	if err != nil || a != 0 {
		t.Fatalf("first alloc at %d (%v), want 0", a, err)
	}
	b, err := v.Alloc("b", ps/2)
	if err != nil || b != 10*ps {
		t.Fatalf("second alloc at %d (%v), want page-aligned %d", b, err, 10*ps)
	}
	cAddr, err := v.Alloc("c", ps)
	if err != nil || cAddr != 11*ps {
		t.Fatalf("third alloc at %d (%v): sub-page alloc must still consume a page", cAddr, err)
	}
	if _, err := v.Alloc("huge", 10000*ps); err == nil {
		t.Fatal("overcommitting the address space succeeded")
	}
	if got := len(v.Regions()); got != 3 {
		t.Fatalf("regions = %d, want 3", got)
	}
}

func TestStoreLoadRoundTrip(t *testing.T) {
	_, v := newVM(t, 64, 64)
	base, _ := v.Alloc("x", 8*v.Params().PageSize)
	v.StoreF64(base, 3.25)
	v.StoreI64(base+8, -42)
	if got := v.LoadF64(base); got != 3.25 {
		t.Fatalf("LoadF64 = %v, want 3.25", got)
	}
	if got := v.LoadI64(base + 8); got != -42 {
		t.Fatalf("LoadI64 = %v, want -42", got)
	}
}

func TestDemandFaultChargesLatency(t *testing.T) {
	c, v := newVM(t, 64, 64)
	base, _ := v.Alloc("x", v.Params().PageSize)
	start := c.Now()
	_ = v.LoadF64(base)
	elapsed := c.Now() - start
	min := v.Params().FaultServiceTime
	if elapsed <= min {
		t.Fatalf("first touch took %v, want > fault service %v (plus disk)", elapsed, min)
	}
	ts := v.Times()
	if ts.SysFault < v.Params().FaultServiceTime {
		t.Fatalf("SysFault = %v, want ≥ %v", ts.SysFault, v.Params().FaultServiceTime)
	}
	if ts.Idle <= 0 {
		t.Fatal("demand fault produced no idle (stall) time")
	}
	s := v.Stats()
	if s.MajorFaults != 1 || s.NonPrefetchedFault != 1 {
		t.Fatalf("stats = %+v, want one major non-prefetched fault", s)
	}
}

func TestSecondTouchIsFree(t *testing.T) {
	c, v := newVM(t, 64, 64)
	base, _ := v.Alloc("x", v.Params().PageSize)
	_ = v.LoadF64(base)
	before := c.Now()
	for i := 0; i < 100; i++ {
		_ = v.LoadF64(base + int64(i*8))
	}
	if c.Now() != before {
		t.Fatal("resident accesses advanced the kernel clock")
	}
	if v.Stats().MajorFaults != 1 {
		t.Fatalf("major faults = %d, want 1", v.Stats().MajorFaults)
	}
}

func TestUserOpsAccumulateLazily(t *testing.T) {
	c, v := newVM(t, 64, 64)
	v.AddUserOps(1000)
	if c.Now() != 0 {
		t.Fatal("AddUserOps advanced the clock eagerly")
	}
	if got := v.Times().User; got != sim.Time(1000)*v.Params().OpTime {
		t.Fatalf("Times().User = %v, want %v", got, sim.Time(1000)*v.Params().OpTime)
	}
	base, _ := v.Alloc("x", v.Params().PageSize)
	_ = v.LoadF64(base) // kernel crossing flushes
	if c.Now() < sim.Time(1000)*v.Params().OpTime {
		t.Fatal("kernel crossing did not flush pending user time")
	}
}

func TestPrefetchHidesLatency(t *testing.T) {
	c, v := newVM(t, 64, 64)
	base, _ := v.Alloc("x", 2*v.Params().PageSize)
	page := v.PageOf(base)

	v.Prefetch(page, 1)
	// Give the prefetch time to complete before the touch.
	c.Advance(100 * sim.Millisecond)

	idleBefore := v.Times().Idle
	_ = v.LoadF64(base)
	if got := v.Times().Idle - idleBefore; got != 0 {
		t.Fatalf("touch after completed prefetch stalled %v", got)
	}
	s := v.Stats()
	if s.PrefetchedHits != 1 {
		t.Fatalf("PrefetchedHits = %d, want 1 (stats %+v)", s.PrefetchedHits, s)
	}
	if s.MajorFaults != 0 {
		t.Fatalf("MajorFaults = %d, want 0", s.MajorFaults)
	}
	if s.PrefetchIssued != 1 {
		t.Fatalf("PrefetchIssued = %d, want 1", s.PrefetchIssued)
	}
}

func TestLatePrefetchIsPrefetchedFault(t *testing.T) {
	_, v := newVM(t, 64, 64)
	base, _ := v.Alloc("x", v.Params().PageSize)
	v.Prefetch(v.PageOf(base), 1)
	// Touch immediately: the read is still in flight.
	_ = v.LoadF64(base)
	s := v.Stats()
	if s.PrefetchedFaults != 1 {
		t.Fatalf("PrefetchedFaults = %d, want 1 (stats %+v)", s.PrefetchedFaults, s)
	}
	if s.PrefetchedHits != 0 {
		t.Fatalf("PrefetchedHits = %d, want 0", s.PrefetchedHits)
	}
	if v.Times().Idle <= 0 {
		t.Fatal("late prefetch should still stall")
	}
}

func TestPrefetchOfResidentPageIsUnnecessary(t *testing.T) {
	_, v := newVM(t, 64, 64)
	base, _ := v.Alloc("x", v.Params().PageSize)
	_ = v.LoadF64(base)
	v.Prefetch(v.PageOf(base), 1)
	s := v.Stats()
	if s.PrefetchUnneeded != 1 {
		t.Fatalf("PrefetchUnneeded = %d, want 1", s.PrefetchUnneeded)
	}
	if s.PrefetchIssued != 0 {
		t.Fatalf("PrefetchIssued = %d, want 0", s.PrefetchIssued)
	}
}

func TestPrefetchDroppedWhenMemoryFull(t *testing.T) {
	c, v := newVM(t, 8, 64)
	ps := v.Params().PageSize
	base, _ := v.Alloc("x", 64*ps)
	// Ask for all 8 frames plus one more: the OS keeps a 2-frame reserve
	// for demand faults, so 6 issue and 3 drop.
	v.Prefetch(v.PageOf(base), 8)
	v.Prefetch(v.PageOf(base)+8, 1)
	s := v.Stats()
	if s.PrefetchDropped != 3 || s.PrefetchIssued != 6 {
		t.Fatalf("dropped/issued = %d/%d, want 3/6 (stats %+v)", s.PrefetchDropped, s.PrefetchIssued, s)
	}
	// The dropped page still counts as prefetched for coverage: its later
	// fault is a prefetched fault.
	c.Advance(sim.Second)
	_ = v.LoadF64(base + 8*ps)
	if got := v.Stats().PrefetchedFaults; got != 1 {
		t.Fatalf("fault after dropped prefetch classified wrong: PrefetchedFaults=%d", got)
	}
}

func TestBlockPrefetchSingleSyscall(t *testing.T) {
	_, v := newVM(t, 64, 64)
	base, _ := v.Alloc("x", 16*v.Params().PageSize)
	v.Prefetch(v.PageOf(base), 8)
	s := v.Stats()
	if s.PrefetchCalls != 1 {
		t.Fatalf("PrefetchCalls = %d, want 1", s.PrefetchCalls)
	}
	if s.PrefetchIssued != 8 {
		t.Fatalf("PrefetchIssued = %d, want 8", s.PrefetchIssued)
	}
	if got := v.Times().SysPrefetch; got != v.Params().PrefetchSyscallTime {
		t.Fatalf("SysPrefetch = %v, want exactly one syscall %v", got, v.Params().PrefetchSyscallTime)
	}
}

func TestReleaseMakesPageReclaimable(t *testing.T) {
	c, v := newVM(t, 64, 64)
	base, _ := v.Alloc("x", 4*v.Params().PageSize)
	_ = v.LoadF64(base)
	free := v.FreeFrames()
	v.Release(v.PageOf(base), 1)
	c.Advance(sim.Second)
	if got := v.FreeFrames(); got != free+1 {
		t.Fatalf("free frames after release = %d, want %d", got, free+1)
	}
	if !v.BitVector().Get(v.PageOf(base)) == false {
		t.Fatal("release did not clear the residency bit")
	}
	// Touching it again is a minor fault: the content is still there.
	v.StoreF64(base, 7)
	s := v.Stats()
	if s.MinorFaults != 1 {
		t.Fatalf("MinorFaults = %d, want 1 (rescue)", s.MinorFaults)
	}
	if v.LoadF64(base) != 7 {
		t.Fatal("rescued page lost data")
	}
}

func TestReleaseDirtyPageWritesBack(t *testing.T) {
	c, v := newVM(t, 64, 64)
	base, _ := v.Alloc("x", v.Params().PageSize)
	v.StoreF64(base, 1.5)
	v.Release(v.PageOf(base), 1)
	c.Advance(sim.Second)
	s := v.Stats()
	if s.Writebacks != 1 {
		t.Fatalf("Writebacks = %d, want 1", s.Writebacks)
	}
	if v.FreeFrames() != 64 {
		t.Fatalf("free frames = %d, want all 64 back", v.FreeFrames())
	}
}

func TestReleasedFrameIsReusedFirst(t *testing.T) {
	c, v := newVM(t, 64, 128)
	ps := v.Params().PageSize
	base, _ := v.Alloc("x", 128*ps)
	_ = v.LoadF64(base) // page 0 in some frame
	p0 := v.PageOf(base)
	v.Release(p0, 1)
	c.Advance(sim.Second)
	// Demand-fault another page: it must take page 0's frame (head of the
	// free list) even though other frames are free.
	_ = v.LoadF64(base + 64*ps)
	if v.Resident(p0) {
		t.Fatal("released page still resident: its frame was not reused first")
	}
}

func TestPrefetchRescuesReleasedPage(t *testing.T) {
	c, v := newVM(t, 64, 64)
	base, _ := v.Alloc("x", 4*v.Params().PageSize)
	v.StoreF64(base, 9.5)
	p := v.PageOf(base)
	v.Release(p, 1)
	c.Advance(sim.Second)
	v.Prefetch(p, 1)
	s := v.Stats()
	if s.PrefetchRescues != 1 {
		t.Fatalf("PrefetchRescues = %d, want 1 (stats %+v)", s.PrefetchRescues, s)
	}
	if s.PrefetchUnneeded != 0 {
		t.Fatal("free-list rescue must not count as unnecessary (paper footnote)")
	}
	if v.LoadF64(base) != 9.5 {
		t.Fatal("rescued page lost data")
	}
	if got := v.Stats().PrefetchedHits; got != 1 {
		t.Fatalf("PrefetchedHits = %d, want 1 after rescue + touch", got)
	}
}

func TestBundledPrefetchRelease(t *testing.T) {
	c, v := newVM(t, 16, 64)
	ps := v.Params().PageSize
	base, _ := v.Alloc("x", 64*ps)
	p0 := v.PageOf(base)
	// Bring in pages 0..7, then in ONE call release them and prefetch 8..15.
	for i := int64(0); i < 8; i++ {
		_ = v.LoadF64(base + i*ps)
	}
	callsBefore := v.Stats().PrefetchCalls
	v.PrefetchRelease(p0+8, 8, p0, 8)
	c.Advance(sim.Second)
	s := v.Stats()
	if s.PrefetchCalls != callsBefore+1 {
		t.Fatalf("bundled call counted %d times", s.PrefetchCalls-callsBefore)
	}
	if s.ReleasedPages != 8 {
		t.Fatalf("ReleasedPages = %d, want 8", s.ReleasedPages)
	}
	for i := int64(8); i < 16; i++ {
		if !v.Resident(p0 + i) {
			t.Fatalf("prefetched page %d not resident", i)
		}
	}
}

func TestEvictionWritesDirtyPages(t *testing.T) {
	c, v := newVM(t, 16, 256)
	ps := v.Params().PageSize
	base, _ := v.Alloc("x", 256*ps)
	// Dirty-stream through 4× memory: the daemon must write pages back,
	// and earlier pages must survive their round trip.
	for i := int64(0); i < 64; i++ {
		v.StoreF64(base+i*ps, float64(i))
		c.Advance(10 * sim.Millisecond) // let the daemon keep up
	}
	c.Advance(sim.Second)
	s := v.Stats()
	if s.Writebacks == 0 {
		t.Fatal("streaming dirty data caused no writebacks")
	}
	for i := int64(0); i < 64; i++ {
		if got := v.LoadF64(base + i*ps); got != float64(i) {
			t.Fatalf("page %d round-tripped to %v, want %v", i, got, float64(i))
		}
	}
}

func TestWorkingSetLargerThanMemory(t *testing.T) {
	_, v := newVM(t, 16, 256)
	ps := v.Params().PageSize
	base, _ := v.Alloc("x", 256*ps)
	// Touch 3× memory worth of pages, read-only.
	for i := int64(0); i < 48; i++ {
		_ = v.LoadF64(base + i*ps)
	}
	s := v.Stats()
	if s.MajorFaults != 48 {
		t.Fatalf("MajorFaults = %d, want 48 (every page missed)", s.MajorFaults)
	}
	if v.FreeFrames() < 0 {
		t.Fatal("free count went negative")
	}
}

func TestPreloadWarmStart(t *testing.T) {
	c, v := newVM(t, 64, 64)
	ps := v.Params().PageSize
	base, _ := v.Alloc("x", 16*ps)
	n := v.Preload(v.PageOf(base), 16)
	if n != 16 {
		t.Fatalf("Preload loaded %d pages, want 16", n)
	}
	if c.Now() != 0 {
		t.Fatal("Preload consumed simulated time")
	}
	v.ResetAccounting()
	for i := int64(0); i < 16; i++ {
		_ = v.LoadF64(base + i*ps)
	}
	s := v.Stats()
	if s.MajorFaults != 0 || s.MinorFaults != 0 {
		t.Fatalf("warm-started run faulted: %+v", s)
	}
	if s.OriginalFaults() != 0 {
		t.Fatalf("warm touches miscounted as original faults: %+v", s)
	}
}

func TestFinishFlushesDirty(t *testing.T) {
	_, v := newVM(t, 64, 64)
	ps := v.Params().PageSize
	base, _ := v.Alloc("x", 8*ps)
	for i := int64(0); i < 8; i++ {
		v.StoreF64(base+i*ps, float64(i))
	}
	v.Finish()
	if got := v.Stats().Writebacks; got != 8 {
		t.Fatalf("Finish wrote %d pages, want 8", got)
	}
	// Pages stay resident after a flush.
	for i := int64(0); i < 8; i++ {
		if !v.Resident(v.PageOf(base) + i) {
			t.Fatalf("page %d evicted by Finish", i)
		}
	}
}

func TestCoverageFactor(t *testing.T) {
	s := Stats{PrefetchedHits: 75, PrefetchedFaults: 5, NonPrefetchedFault: 20}
	if got := s.CoverageFactor(); got != 0.80 {
		t.Fatalf("CoverageFactor = %v, want 0.80", got)
	}
	if got := s.OriginalFaults(); got != 100 {
		t.Fatalf("OriginalFaults = %d, want 100", got)
	}
	if (Stats{}).CoverageFactor() != 0 {
		t.Fatal("empty stats coverage not 0")
	}
}

func TestHintRangeChecked(t *testing.T) {
	_, v := newVM(t, 16, 16)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range prefetch did not panic")
		}
	}()
	v.Prefetch(10, 10)
}

func TestFreeQueueSurvivesHeavyRescueTraffic(t *testing.T) {
	// Far more release→touch cycles than there are frames: every
	// release links a frame in at the free list's head and every rescue
	// unlinks it again, and no page may lose its data on the way.
	c, v := newVM(t, 16, 64)
	ps := v.Params().PageSize
	base, _ := v.Alloc("x", 8*ps)
	for round := 0; round < 200; round++ {
		for i := int64(0); i < 8; i++ {
			v.StoreF64(base+i*ps, float64(round))
		}
		v.Release(v.PageOf(base), 8)
		c.Advance(50 * sim.Millisecond)
	}
	for i := int64(0); i < 8; i++ {
		if got := v.LoadF64(base + i*ps); got != 199 {
			t.Fatalf("page %d lost data after rescue storm: %v", i, got)
		}
	}
}
