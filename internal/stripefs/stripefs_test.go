package stripefs

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/disk"
	"repro/internal/hw"
	"repro/internal/sim"
)

func newFS() (*sim.Clock, *FS) {
	c := sim.NewClock()
	return c, New(c, hw.Scaled(8<<20), nil)
}

// fillWords returns n words, each set to w.
func fillWords(n int64, w uint64) []uint64 {
	b := make([]uint64, n)
	for i := range b {
		b[i] = w
	}
	return b
}

func TestCreateValidatesSize(t *testing.T) {
	_, fs := newFS()
	if _, err := fs.Create("bad", 0); err == nil {
		t.Fatal("Create with 0 pages succeeded")
	}
	if _, err := fs.Create("bad", -3); err == nil {
		t.Fatal("Create with negative pages succeeded")
	}
	f, err := fs.Create("ok", 10)
	if err != nil || f.Pages() != 10 || f.Name() != "ok" {
		t.Fatalf("Create(ok,10) = %v, %v", f, err)
	}
}

func TestRoundRobinStriping(t *testing.T) {
	_, fs := newFS()
	f, _ := fs.Create("f", 100)
	d := fs.Params().NumDisks
	for p := int64(0); p < 100; p++ {
		if got := f.DiskOf(p); got != int(p)%d {
			t.Fatalf("page %d on disk %d, want %d", p, got, int(p)%d)
		}
	}
}

func TestExtentsAreContiguousPerDisk(t *testing.T) {
	_, fs := newFS()
	f, _ := fs.Create("f", 70)
	d := int64(fs.Params().NumDisks)
	for dd := int64(0); dd < d; dd++ {
		var prev int64 = -1
		for p := dd; p < 70; p += d {
			_, block := f.locate(p)
			if prev >= 0 && block != prev+1 {
				t.Fatalf("disk %d: page %d at block %d, previous page's block %d (not contiguous)", dd, p, block, prev)
			}
			prev = block
		}
	}
}

func TestTwoFilesDoNotOverlap(t *testing.T) {
	_, fs := newFS()
	a, _ := fs.Create("a", 21)
	b, _ := fs.Create("b", 21)
	type loc struct {
		d int
		b int64
	}
	seen := map[loc]string{}
	for p := int64(0); p < 21; p++ {
		for _, f := range []*File{a, b} {
			d, blk := f.locate(p)
			l := loc{d, blk}
			if prev, ok := seen[l]; ok {
				t.Fatalf("disk %d block %d used by both %s and %s", d, blk, prev, f.Name())
			}
			seen[l] = f.Name()
		}
	}
}

func TestReadDeliversStoredData(t *testing.T) {
	c, fs := newFS()
	f, _ := fs.Create("f", 8)
	pw := fs.Params().PageSize / 8
	want := make(map[int64][]uint64)
	for p := int64(0); p < 8; p++ {
		data := fillWords(pw, uint64(p+1))
		f.SetPageWords(p, data)
		want[p] = data
	}
	got := map[int64][]uint64{}
	buf := func(p int64) []uint64 {
		b := make([]uint64, pw)
		got[p] = b
		return b
	}
	doneAt := sim.Time(-1)
	f.Read(0, 8, disk.FaultRead, buf, nil, nil, func() { doneAt = c.Now() })
	c.Drain()
	if doneAt < 0 {
		t.Fatal("Read never completed")
	}
	for p := int64(0); p < 8; p++ {
		if !slices.Equal(got[p], want[p]) {
			t.Fatalf("page %d content mismatch", p)
		}
	}
}

// SetPage takes raw bytes and must lay them out as little-endian words,
// zero-filling the rest of the page — the byte-level view tests and
// experiment seeding rely on.
func TestSetPageBytesAreLittleEndianWords(t *testing.T) {
	_, fs := newFS()
	f, _ := fs.Create("f", 2)
	f.SetPage(1, []byte{0x01, 0x02, 0x03, 0, 0, 0, 0, 0, 0xFF})
	got := f.PeekPage(1)
	if got[0] != 0x030201 {
		t.Fatalf("word 0 = %#x, want 0x030201", got[0])
	}
	if got[1] != 0xFF {
		t.Fatalf("word 1 = %#x, want 0xff (partial trailing bytes)", got[1])
	}
	for i := 2; i < len(got); i++ {
		if got[i] != 0 {
			t.Fatalf("word %d = %#x, want zero fill", i, got[i])
		}
	}
	// Overwriting with fewer bytes must clear what was there before.
	f.SetPage(1, []byte{0x07})
	got = f.PeekPage(1)
	if got[0] != 0x07 || got[1] != 0 {
		t.Fatalf("after overwrite: words %#x %#x, want 0x07 0", got[0], got[1])
	}
}

func TestReadZeroFillsUnwrittenPages(t *testing.T) {
	c, fs := newFS()
	f, _ := fs.Create("f", 2)
	buf := fillWords(fs.Params().PageSize/8, ^uint64(0))
	f.Read(1, 1, disk.FaultRead, func(int64) []uint64 { return buf }, nil, nil, nil)
	c.Drain()
	for _, w := range buf {
		if w != 0 {
			t.Fatal("unwritten page not zero-filled")
		}
	}
}

func TestReadZeroPagesCompletesImmediately(t *testing.T) {
	_, fs := newFS()
	f, _ := fs.Create("f", 4)
	done := false
	f.Read(2, 0, disk.FaultRead, nil, nil, nil, func() { done = true })
	if !done {
		t.Fatal("zero-length read did not complete synchronously")
	}
}

func TestBlockReadCoalescesPerDisk(t *testing.T) {
	c, fs := newFS()
	f, _ := fs.Create("f", 64)
	nd := fs.Params().NumDisks
	buf := make([]uint64, fs.Params().PageSize/8)
	// Read 2×NumDisks contiguous pages: each disk should see exactly one
	// request of two pages.
	f.Read(0, int64(2*nd), disk.PrefetchRead, func(int64) []uint64 { return buf }, nil, nil, nil)
	c.Drain()
	for i, d := range fs.Backends() {
		s := d.Stats()
		if s.Requests[disk.PrefetchRead] != 1 {
			t.Fatalf("disk %d saw %d requests, want 1 (coalescing)", i, s.Requests[disk.PrefetchRead])
		}
		if s.Pages[disk.PrefetchRead] != 2 {
			t.Fatalf("disk %d moved %d pages, want 2", i, s.Pages[disk.PrefetchRead])
		}
	}
}

func TestStripingParallelism(t *testing.T) {
	// Reading NumDisks pages striped across all disks should take about
	// as long as reading one page, not NumDisks times as long.
	p := hw.Scaled(8 << 20)
	oneDisk := p
	oneDisk.NumDisks = 1

	elapsed := func(pp hw.Params, n int64) sim.Time {
		c := sim.NewClock()
		fs := New(c, pp, nil)
		f, _ := fs.Create("f", 64)
		buf := make([]uint64, pp.PageSize/8)
		// n independent one-page reads, as a stream of prefetches would be.
		for i := int64(0); i < n; i++ {
			f.Read(i, 1, disk.FaultRead, func(int64) []uint64 { return buf }, nil, nil, nil)
		}
		c.Drain()
		return c.Now()
	}
	striped := elapsed(p, int64(p.NumDisks))
	serial := elapsed(oneDisk, int64(p.NumDisks))
	if striped*2 >= serial {
		t.Fatalf("striped read %v not substantially faster than single-disk %v", striped, serial)
	}
}

func TestWritePersists(t *testing.T) {
	c, fs := newFS()
	f, _ := fs.Create("f", 4)
	src := fillWords(fs.Params().PageSize/8, 0xAB)
	done := false
	f.Write(3, src, func(int64) { done = true })
	// Source can be reused immediately: the write captured a copy.
	for i := range src {
		src[i] = 0
	}
	c.Drain()
	if !done {
		t.Fatal("write never completed")
	}
	got := f.PeekPage(3)
	if got == nil || got[0] != 0xAB {
		t.Fatal("write did not persist captured data")
	}
	if fs.Backends()[f.DiskOf(3)].Stats().Requests[disk.Write] != 1 {
		t.Fatal("write request not accounted on the right disk")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	_, fs := newFS()
	f, _ := fs.Create("f", 4)
	for _, fn := range []func(){
		func() { f.SetPage(4, nil) },
		func() { f.SetPage(-1, nil) },
		func() { f.Read(3, 2, disk.FaultRead, nil, nil, nil, nil) },
		func() { f.Write(99, make([]uint64, fs.Params().PageSize/8), nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-range access did not panic")
				}
			}()
			fn()
		}()
	}
}

// Property: a write followed by a read of the same page returns exactly
// the written words, for arbitrary page indices and contents.
func TestWriteReadRoundTripProperty(t *testing.T) {
	p := hw.Scaled(8 << 20)
	f := func(pageSel uint8, fill uint64) bool {
		c := sim.NewClock()
		fs := New(c, p, nil)
		file, _ := fs.Create("f", 32)
		page := int64(pageSel % 32)
		src := fillWords(p.PageSize/8, fill)
		file.Write(page, src, nil)
		c.Drain()
		got := make([]uint64, p.PageSize/8)
		file.Read(page, 1, disk.FaultRead, func(int64) []uint64 { return got }, nil, nil, nil)
		c.Drain()
		return slices.Equal(got, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestPageBufSlab: with the free list empty, page buffers are carved out
// of 64-page slabs — first write-backs cost one allocation per slab, not
// per page — and no buffer can reach its neighbour; Recycle hands the
// slab's unissued tail to the next FS.
func TestPageBufSlab(t *testing.T) {
	c, fs := newFS()
	fs.Recycle() // start from an empty free list, whatever earlier tests left
	fs.freePageBufs, fs.slab = nil, nil
	recycleMu.Lock()
	recycled.pageBufs = nil
	recycleMu.Unlock()

	const pages = 3*slabPages + 5
	pw := fs.Params().PageSize / 8
	f, _ := fs.Create("f", pages)
	src := fillWords(pw, 0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for p := int64(0); p < pages; p++ {
		src[0] = uint64(p) + 1
		f.Write(p, src, nil)
		c.Drain() // one write in flight at a time: its writeOp is reused
	}
	runtime.ReadMemStats(&after)
	// 4 slabs, one writeOp with its two bound callbacks, queue growth.
	if allocs := after.Mallocs - before.Mallocs; allocs > 4+16 {
		t.Errorf("%d first writes made %d allocations; want one per %d-page slab and a few fixed ones", pages, allocs, slabPages)
	}
	for p := int64(0); p < pages; p++ {
		got := f.PeekPage(p)
		if int64(len(got)) != pw || int64(cap(got)) != pw {
			t.Fatalf("page %d buffer has len %d cap %d, want both %d", p, len(got), cap(got), pw)
		}
		if got[0] != uint64(p)+1 || got[pw-1] != 0 {
			t.Fatalf("page %d holds %#x … %#x: slab neighbours overlap", p, got[0], got[pw-1])
		}
	}
	tail := int64(len(fs.slab)) / pw
	if tail != slabPages-5 {
		t.Fatalf("slab tail holds %d pages, want %d", tail, slabPages-5)
	}
	onList := int64(len(fs.freePageBufs))
	fs.Recycle()
	_, next := newFS()
	if got := int64(len(next.freePageBufs)); got != onList+tail {
		t.Errorf("next FS adopted %d page buffers, want the %d freed plus the %d-page slab tail", got, onList, tail)
	}
}

// TestConcurrentFileSystemsShareRecycler: file systems on every storage
// tier are built, driven and Recycled from several goroutines at once —
// the way parallel experiment runs and tenant servers use the package —
// so each adopts request objects and page buffers another goroutine's
// file system retired. Every run must read back what it wrote and finish
// at its tier's sequential time. `make race` runs this under the race
// detector.
func TestConcurrentFileSystemsShareRecycler(t *testing.T) {
	tiers := []hw.Tier{hw.TierDisk, hw.TierNVMe, hw.TierFarMemory}
	const pages = 96
	run := func(tier hw.Tier, salt uint64) (sim.Time, error) {
		c := sim.NewClock()
		fs := New(c, hw.ScaledTier(tier, 8<<20), nil)
		defer fs.Recycle()
		f, err := fs.Create("f", pages)
		if err != nil {
			return 0, err
		}
		pw := fs.Params().PageSize / 8
		for p := int64(0); p < pages; p++ {
			f.Write(p, fillWords(pw, salt+uint64(p)), nil)
		}
		c.Drain()
		got := make([][]uint64, pages)
		for p := int64(0); p < pages; p += 8 {
			f.Read(p, 8, disk.PrefetchRead, func(q int64) []uint64 {
				got[q] = make([]uint64, pw)
				return got[q]
			}, nil, nil, nil)
		}
		c.Drain()
		for p := range got {
			if want := salt + uint64(p); len(got[p]) == 0 || got[p][0] != want || got[p][pw-1] != want {
				return 0, fmt.Errorf("%v: page %d read back wrong data", tier, p)
			}
		}
		return c.Now(), nil
	}
	want := map[hw.Tier]sim.Time{}
	for _, tier := range tiers {
		end, err := run(tier, 1)
		if err != nil {
			t.Fatal(err)
		}
		want[tier] = end
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 6; round++ {
				tier := tiers[(g+round)%len(tiers)]
				end, err := run(tier, uint64(1000*g+round))
				if err != nil {
					t.Error(err)
				} else if end != want[tier] {
					t.Errorf("goroutine %d round %d: %v finished at %v, sequentially at %v", g, round, tier, end, want[tier])
				}
			}
		}(g)
	}
	wg.Wait()
}
