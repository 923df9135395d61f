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

// stashPageBufs replaces the recycler's page-buffer stash.
func stashPageBufs(bufs [][]uint64, pageWords int64) {
	recycleMu.Lock()
	recycled.pageBufs, recycled.pageWords = bufs, pageWords
	recycleMu.Unlock()
}

func stashedPageBufs() int {
	recycleMu.Lock()
	defer recycleMu.Unlock()
	return len(recycled.pageBufs)
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
		"SetPage":      func() { f.SetPage(1, []byte{1}) },
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
				f.SetPage(pg, []byte{1, 2, 3})
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
	if stashedPageBufs() != 0 || len(fs.slab) != 0 {
		t.Fatalf("a stash of the FS's page size was not adopted: %d buffers left, %d slab words made", stashedPageBufs(), len(fs.slab))
	}
	for pg := range want {
		if !slices.Equal(got[pg], want[pg]) {
			t.Fatalf("page %d differs on dirty buffers", pg)
		}
	}

	stashPageBufs(poisoned(2*pages, 8), 8) // a 64-byte-page FS's buffers
	got, fs = run()
	if stashedPageBufs() != 2*pages || len(fs.slab) == 0 {
		t.Fatalf("a stash of another page size was taken: %d of %d buffers left", stashedPageBufs(), 2*pages)
	}
	for pg := range want {
		if !slices.Equal(got[pg], want[pg]) {
			t.Fatalf("page %d differs beside a wrong-size stash", pg)
		}
	}
}
