package stripefs

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/disk"
	"repro/internal/hw"
	"repro/internal/sim"
)

// stashPageBufs empties the kept slot and puts in it a set of no request
// objects and bufs, unless bufs is nil.
func stashPageBufs(bufs [][]uint64, pageWords int64) {
	keptSlot.Take()
	if bufs != nil {
		keptSlot.Put(&kept{pageBufs: bufs, pageWords: pageWords})
	}
}

// TestDiscard: Discard moves every backing buffer of the file to the
// FS's free list at once; I/O already in flight resolves on schedule —
// a read as for a never-written page, a write-back with its buffer going
// to the free list instead of the store —; a later write-back completes
// on schedule too, taking no buffer and leaving the store empty; and
// any other later use of the file's contents panics by name.
func TestDiscard(t *testing.T) {
	const pages = 8
	type outcome struct {
		readDone, writeDone, lateWrite sim.Time
		got                            [][]uint64
	}
	run := func(discard bool) (outcome, *FS, *File) {
		stashPageBufs(nil, 0)
		c, fs := newFS()
		pw := fs.Params().PageSize / 8
		f, _ := fs.Create("job", pages)
		for p := int64(0); p < pages; p++ {
			f.Write(p, fillWords(pw, uint64(p)+1), nil)
		}
		c.Drain()
		if n := len(fs.freePageBufs); n != 0 {
			t.Fatalf("%d page buffers free after first writes, want 0", n)
		}
		var out outcome
		out.got = make([][]uint64, 4)
		f.Read(0, 4, disk.PrefetchRead, func(p int64) []uint64 {
			out.got[p] = fillWords(pw, 0xdead)
			return out.got[p]
		}, nil, nil, func() { out.readDone = c.Now() })
		f.Write(5, fillWords(pw, 77), func(int64) { out.writeDone = c.Now() })
		if discard {
			f.Discard()
			if n := len(fs.freePageBufs); n != pages {
				t.Fatalf("Discard freed %d page buffers, want %d", n, pages)
			}
		}
		c.Drain()
		start := c.Now()
		f.Write(1, fillWords(pw, 1), func(int64) { out.lateWrite = c.Now() - start })
		c.Drain()
		return out, fs, f
	}
	kept, _, _ := run(false)
	gone, fs, f := run(true)
	if gone.readDone != kept.readDone || gone.writeDone != kept.writeDone || gone.readDone == 0 || gone.writeDone == 0 {
		t.Fatalf("Discard moved in-flight I/O: read done %v (kept: %v), write done %v (kept: %v)",
			gone.readDone, kept.readDone, gone.writeDone, kept.writeDone)
	}
	if gone.lateWrite != kept.lateWrite || gone.lateWrite == 0 {
		t.Fatalf("a write-back after Discard took %v, want the %v it takes on a live file", gone.lateWrite, kept.lateWrite)
	}
	for p, page := range gone.got {
		if slices.ContainsFunc(page, func(w uint64) bool { return w != 0 }) {
			t.Fatalf("page %d read after Discard is not all zero", p)
		}
		if kept.got[p][0] != uint64(p)+1 {
			t.Fatalf("control read of page %d returned %#x", p, kept.got[p][0])
		}
	}
	if n := len(fs.freePageBufs); n != pages+1 {
		t.Fatalf("%d page buffers free after the late write-back landed, want %d", n, pages+1)
	}
	if slices.ContainsFunc(f.store, func(b []uint64) bool { return b != nil }) {
		t.Fatal("a discarded file still holds a backing buffer")
	}

	for name, use := range map[string]func(){
		"SetPageWords": func() { f.SetPageWords(1, []uint64{1}) },
		"PeekPage":     func() { f.PeekPage(1) },
	} {
		func() {
			defer func() {
				want := `stripefs: file "job" used after Discard`
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), want) {
					t.Errorf("%s after Discard: recovered %v, want a panic saying %q", name, r, want)
				}
			}()
			use()
		}()
	}
}

// TestFSAdoptsDirtyPageBufs is the page-buffer half of the proof that
// recycled memory needs no zeroing (vm.TestPoolAdoptsDirtySlab is the
// frame half): an FS that adopted buffers full of poison stores and
// reads back exactly what one on fresh memory does, including the zero
// tail of every short write. A stash recorded for another page size is
// left alone.
func TestFSAdoptsDirtyPageBufs(t *testing.T) {
	defer stashPageBufs(nil, 0)
	const pages = 12
	p := hw.Scaled(8 << 20)
	pw := p.PageSize / 8
	run := func() ([][]uint64, *FS) {
		c := sim.NewClock()
		fs := New(c, p, nil)
		f, _ := fs.Create("f", pages)
		for pg := int64(0); pg < pages; pg++ {
			switch pg % 4 {
			case 0:
				f.Write(pg, fillWords(pw, uint64(pg)+1), nil)
			case 1:
				f.Write(pg, fillWords(pw/2, uint64(pg)+1), nil) // short: the tail must read zero
			case 2:
				f.SetPageWords(pg, []uint64{0x030201})
			case 3:
				f.SetPageWords(pg, []uint64{uint64(pg), 9})
			}
		}
		c.Drain()
		f.Write(0, fillWords(1, 5), nil) // overwrite: takes the buffer page 0 will free
		c.Drain()
		got := make([][]uint64, pages)
		f.Read(0, pages, disk.FaultRead, func(pg int64) []uint64 {
			got[pg] = fillWords(pw, 0xfeed)
			return got[pg]
		}, nil, nil, nil)
		c.Drain()
		return got, fs
	}
	poisoned := func(n int, words int64) [][]uint64 {
		bufs := make([][]uint64, n)
		for i := range bufs {
			bufs[i] = fillWords(words, 0xdeadbeefdeadbeef)
		}
		return bufs
	}

	stashPageBufs(nil, 0)
	want, _ := run()

	stashPageBufs(poisoned(2*pages, pw), pw)
	got, fs := run()
	if len(fs.kept.pageBufs) != 0 || len(fs.slab) != 0 {
		t.Fatalf("a stash of the FS's page size was not adopted: %d buffers left, %d slab words made", len(fs.kept.pageBufs), len(fs.slab))
	}
	for pg := range want {
		if !slices.Equal(got[pg], want[pg]) {
			t.Fatalf("page %d differs on dirty buffers", pg)
		}
	}

	stashPageBufs(poisoned(2*pages, 8), 8) // a 64-byte-page FS's buffers
	got, fs = run()
	if len(fs.kept.pageBufs) != 2*pages || len(fs.slab) == 0 {
		t.Fatalf("a stash of another page size was taken: %d of %d buffers left", len(fs.kept.pageBufs), 2*pages)
	}
	for pg := range want {
		if !slices.Equal(got[pg], want[pg]) {
			t.Fatalf("page %d differs beside a wrong-size stash", pg)
		}
	}
}

// TestImagePages: a file shares an image's pages by reference, and no path
// writes into one or frees one. PeekPage and a read return the image's
// words until the page's first write; a write-back, an in-place
// SetPageWords and Discard leave every image word as it was and no image
// page on the free list, and Recycle hands the kept slot no image page.
func TestImagePages(t *testing.T) {
	stashPageBufs(nil, 0)
	c, fs := newFS()
	pw := fs.Params().PageSize / 8
	img := make([][]uint64, 5) // pages 3 and 5 of the file are not in it
	for _, p := range []int{0, 1, 2, 4} {
		img[p] = fillWords(pw, 0x100+uint64(p))
	}
	want := make([][]uint64, len(img))
	for p, words := range img {
		want[p] = slices.Clone(words)
	}
	isImage := func(b []uint64) bool {
		return slices.ContainsFunc(img, func(w []uint64) bool { return w != nil && &w[0] == &b[0] })
	}
	check := func(when string) {
		t.Helper()
		for p := range img {
			if !slices.Equal(img[p], want[p]) {
				t.Fatalf("%s: image page %d changed", when, p)
			}
		}
		if slices.ContainsFunc(fs.freePageBufs, isImage) {
			t.Fatalf("%s: an image page is on the free list", when)
		}
	}
	f, _ := fs.Create("in", 6)
	f.SetImage(img)
	for p := int64(0); p < 6; p++ {
		var got []uint64
		f.Read(p, 1, disk.FaultRead, func(int64) []uint64 { got = fillWords(pw, 0xdead); return got }, nil, nil, nil)
		c.Drain()
		if p < int64(len(img)) && img[p] != nil {
			if !slices.Equal(got, want[p]) || !slices.Equal(f.PeekPage(p), want[p]) {
				t.Fatalf("page %d: read %#x, peeked %#x, want the image's %#x", p, got[0], f.PeekPage(p)[0], want[p][0])
			}
		} else if f.PeekPage(p) != nil || slices.ContainsFunc(got, func(w uint64) bool { return w != 0 }) {
			t.Fatalf("page %d outside the image does not read as all-zero", p)
		}
	}

	f.Write(0, fillWords(pw, 7), nil)
	f.SetPageWords(1, []uint64{9})
	c.Drain()
	check("after a write-back and an in-place SetPageWords")
	if f.PeekPage(0)[0] != 7 || f.PeekPage(1)[0] != 9 || f.PeekPage(1)[1] != 0 || f.PeekPage(2)[0] != want[2][0] {
		t.Fatal("a written page does not read its own words, or an unwritten one not the image's")
	}
	f.Write(0, fillWords(pw, 8), nil) // displaces page 0's own buffer
	c.Drain()
	check("after a second write-back")
	f.Discard()
	check("after Discard")
	if n := len(fs.freePageBufs); n != 3 {
		t.Fatalf("%d page buffers free after Discard, want the file's own 3", n)
	}
	fs.Recycle()
	k := keptSlot.Take()
	if len(k.pageBufs) < 3 || slices.ContainsFunc(k.pageBufs, isImage) {
		t.Fatalf("Recycle kept %d page buffers, an image page among them: %v", len(k.pageBufs), slices.ContainsFunc(k.pageBufs, isImage))
	}
}
