package vm

import (
	"fmt"
	"math/bits"
	"testing"

	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/stripefs"
)

// hashVM builds an address space of pages pages of pageSize bytes, all
// allocated, over frames frames.
func hashVM(t testing.TB, pageSize, frames, pages int64) (*sim.Clock, *VM) {
	t.Helper()
	p := hw.Default()
	p.PageSize = pageSize
	p.MemoryBytes = frames * pageSize
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	c := sim.NewClock()
	f, err := stripefs.New(c, p, nil).Create("space", pages)
	if err != nil {
		t.Fatal(err)
	}
	v := New(c, p, f)
	if _, err := v.Alloc("x", pages*pageSize); err != nil {
		t.Fatal(err)
	}
	return c, v
}

// patternWord is the test image: every word distinct and nonzero.
func patternWord(page, word int64) uint64 {
	return uint64(page*100003+word+1) * 0x2545f4914f6cdd1d
}

// install puts the test image on the backing file, leaving every page
// unmapped.
func install(v *VM) {
	buf := make([]uint64, v.pageWords)
	for page := int64(0); page < v.allocPages; page++ {
		for w := range buf {
			buf[w] = patternWord(page, int64(w))
		}
		v.file.SetPageWords(page, buf)
	}
}

// storeImage writes the test image through Store, faulting every page in
// and leaving it dirty.
func storeImage(v *VM) {
	for page := int64(0); page < v.allocPages; page++ {
		for w := int64(0); w < v.pageWords; w++ {
			v.Store(page*v.p.PageSize+w*8, patternWord(page, w))
		}
	}
}

// states counts the allocated pages in each residency state.
func states(v *VM) map[pageState]int {
	n := map[pageState]int{}
	for page := int64(0); page < v.allocPages; page++ {
		n[v.pt[page].state]++
	}
	return n
}

// TestFingerprintResidencyIndependent: the hash is a function of the
// address space's contents, not of where each page currently lives —
// the same image hashes identically on the backing file, in transit,
// dirty in frames, on the free list, and evicted again; and a
// never-written page equals an explicitly zero-filled one.
func TestFingerprintResidencyIndependent(t *testing.T) {
	for _, pageSize := range []int64{4096, 64} {
		t.Run(fmt.Sprintf("page%d", pageSize), func(t *testing.T) {
			const pages = 24
			_, onFile := hashVM(t, pageSize, 64, pages)
			install(onFile)
			want := onFile.Fingerprint()
			if n := states(onFile); n[unmapped] != pages {
				t.Fatalf("reference image not all on the backing file: %v", n)
			}
			check := func(v *VM, where string) {
				t.Helper()
				if got := v.Fingerprint(); got != want {
					t.Errorf("%s: fingerprint %#x, want %#x (states %v)", where, got, want, states(v))
				}
			}

			// In transit: reads issued, nothing delivered yet.
			c, v := hashVM(t, pageSize, 64, pages)
			install(v)
			v.Prefetch(0, 8)
			if n := states(v); n[inTransit] != 8 {
				t.Fatalf("prefetch left %v, want 8 pages in transit", n)
			}
			check(v, "in transit")
			c.Drain()
			if n := states(v); n[resident] != 8 {
				t.Fatalf("drained prefetch left %v, want 8 resident pages", n)
			}
			check(v, "prefetched")

			// Dirty in frames: the image written through Store, the backing
			// file still empty.
			c, v = hashVM(t, pageSize, 64, pages)
			storeImage(v)
			if n := states(v); n[hot] != pages || v.file.PeekPage(0) != nil {
				t.Fatalf("stores left %v (backing page 0 written: %v), want all hot and unwritten", n, v.file.PeekPage(0) != nil)
			}
			check(v, "dirty in frames")
			// Write-back in flight: the frame is still the current copy.
			v.Release(0, pages)
			check(v, "cleaning")
			c.Drain()
			if n := states(v); n[freeListed] != pages {
				t.Fatalf("release left %v, want all on the free list", n)
			}
			check(v, "on the free list")

			// Evicted: a pool smaller than the space, so most pages went
			// out through write-back and their frames were reused.
			c, v = hashVM(t, pageSize, 8, pages)
			storeImage(v)
			if n := states(v); n[unmapped] == 0 {
				t.Fatalf("no page was evicted from an 8-frame pool: %v", n)
			}
			check(v, "partly evicted")
			v.Finish()
			c.Drain()
			check(v, "finished")
			if err := v.CheckInvariants(); err != nil {
				t.Fatal(err)
			}

			// Never written equals written with zeros, on file or in frames.
			_, blank := hashVM(t, pageSize, 64, pages)
			_, zeroFile := hashVM(t, pageSize, 64, pages)
			_, zeroFrames := hashVM(t, pageSize, 64, pages)
			for page := int64(0); page < pages; page++ {
				zeroFile.file.SetPageWords(page, make([]uint64, zeroFile.pageWords))
				zeroFrames.Store(page*pageSize, 0)
			}
			if blank.file.PeekPage(0) != nil || zeroFile.file.PeekPage(0) == nil {
				t.Fatal("blank/zero-filled set-up is not what the test means to compare")
			}
			if a, b, c := blank.Fingerprint(), zeroFile.Fingerprint(), zeroFrames.Fingerprint(); a != b || a != c {
				t.Errorf("never-written %#x, zero-filled file %#x, zero-filled frames %#x: want all equal", a, b, c)
			}
			if blank.Fingerprint() == want {
				t.Error("blank space hashes like the test image")
			}
		})
	}
}

// TestFingerprintSensitivity: flipping any single bit of a word,
// swapping two words of a page, and swapping two pages each change the
// hash. 4096 B is the default page; 64 B is two lane groups; 16 B is
// shorter than one lane group, so the per-word tail carries the page.
func TestFingerprintSensitivity(t *testing.T) {
	for _, pageSize := range []int64{4096, 64, 16} {
		t.Run(fmt.Sprintf("page%d", pageSize), func(t *testing.T) {
			const pages = 9
			_, v := hashVM(t, pageSize, 64, pages)
			install(v)
			// Half the pages in frames, half on the file: both sources of
			// a page's words are mutated below.
			for page := int64(0); page < pages; page += 2 {
				v.Load(page * pageSize)
			}
			want := v.Fingerprint()
			pw := v.pageWords
			addr := func(page, word int64) int64 { return page*pageSize + word*8 }
			// poke overwrites a word wherever the page currently lives.
			poke := func(a int64, w uint64) {
				src := v.pageContents(a >> v.pageShift)
				src[(a&v.pageMask)>>3] = w
			}
			swap := func(a, b int64) {
				x, y := v.Peek(a), v.Peek(b)
				poke(a, y)
				poke(b, x)
			}
			expectMoved := func(what string) {
				t.Helper()
				if got := v.Fingerprint(); got == want {
					t.Errorf("%s: fingerprint unchanged", what)
				}
			}
			expectRestored := func(what string) {
				t.Helper()
				if got := v.Fingerprint(); got != want {
					t.Fatalf("%s: fingerprint %#x after undo, want %#x", what, got, want)
				}
			}

			for _, page := range []int64{0, 1, pages - 2, pages - 1} {
				for _, word := range []int64{0, pw / 2, pw - 1} {
					a := addr(page, word)
					old := v.Peek(a)
					for bit := uint(0); bit < 64; bit++ {
						poke(a, old^1<<bit)
						expectMoved(fmt.Sprintf("page %d word %d bit %d flipped", page, word, bit))
					}
					poke(a, old)
					expectRestored("bit flips")
				}
				// Word swaps: neighbours (two lanes), same lane a group
				// apart, and the page's two ends.
				for _, pair := range [][2]int64{{0, 1}, {0, hashLanes}, {pw - 1 - hashLanes, pw - 1}, {0, pw - 1}} {
					if pair[0] < 0 || pair[1] >= pw || pair[0] == pair[1] {
						continue // page too short for this pair
					}
					what := fmt.Sprintf("page %d words %d and %d swapped", page, pair[0], pair[1])
					swap(addr(page, pair[0]), addr(page, pair[1]))
					expectMoved(what)
					swap(addr(page, pair[0]), addr(page, pair[1]))
					expectRestored(what)
				}
			}
			for _, pair := range [][2]int64{{0, 1}, {0, pages - 1}, {pages - 2, pages - 1}, {3, 4}} {
				what := fmt.Sprintf("pages %d and %d swapped", pair[0], pair[1])
				for w := int64(0); w < pw; w++ {
					swap(addr(pair[0], w), addr(pair[1], w))
				}
				expectMoved(what)
				for w := int64(0); w < pw; w++ {
					swap(addr(pair[0], w), addr(pair[1], w))
				}
				expectRestored(what)
			}
		})
	}
}

// TestHashMatchesWordAtATimeReference pins the definition: the lane-wise
// page loop computes exactly what a plain loop over single words does —
// word i of a page into lane i mod 4 by xor, rotate, multiply; lanes
// carried across pages; the four lanes folded the same way at the end.
func TestHashMatchesWordAtATimeReference(t *testing.T) {
	step := func(h, w uint64) uint64 { return bits.RotateLeft64(h^w, 29) * 0x9e3779b97f4a7c15 }
	if got := HashWord(7, 9); got != step(7, 9) {
		t.Errorf("HashWord(7, 9) = %#x, reference step %#x", got, step(7, 9))
	}
	for _, pageSize := range []int64{4096, 64, 16, 8} {
		_, v := hashVM(t, pageSize, 64, 11)
		install(v)
		v.file.SetPageWords(4, nil) // a written page of zeros
		for page := int64(0); page < v.allocPages; page += 3 {
			v.Load(page * pageSize) // some pages in frames
		}
		_, blank := hashVM(t, pageSize, 64, 11)
		for _, v := range []*VM{v, blank} {
			lanes := [4]uint64{0xcbf29ce484222325, 0xcbf29ce484222326, 0xcbf29ce484222327, 0xcbf29ce484222328}
			for addr := int64(0); addr < v.allocPages*pageSize; addr += 8 {
				lane := addr % pageSize / 8 % 4
				lanes[lane] = step(lanes[lane], v.Peek(addr))
			}
			want := uint64(0xcbf29ce484222325)
			for _, l := range lanes {
				want = step(want, l)
			}
			if got := v.Fingerprint(); got != want {
				t.Errorf("page size %d: Fingerprint %#x, word-at-a-time reference %#x", pageSize, got, want)
			}
		}
	}
}
