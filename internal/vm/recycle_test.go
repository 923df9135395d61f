package vm

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/stripefs"
)

// poison is what a recycled slab is full of in these tests: a word no
// workload writes, so a frame read before it was filled shows up in a
// fingerprint.
const poison = 0xdeadbeefdeadbeef

func poisoned(words int64) []uint64 {
	w := make([]uint64, words)
	for i := range w {
		w[i] = poison
	}
	return w
}

// setStash empties the frame-slab slot and puts w in it, unless w is nil.
func setStash(w []uint64) {
	frameSlab.Take()
	if w != nil {
		frameSlab.Put(&w)
	}
}

// stashLen is the length of the slab in the slot, 0 when it holds none.
func stashLen() int {
	w := frameSlab.Take()
	defer frameSlab.Put(w)
	return len(*w)
}

// mixOutcome is everything a two-tenant mix leaves behind that frame
// contents could have influenced.
type mixOutcome struct {
	end    sim.Time
	prints [2]uint64
	stats  [2]Stats
	times  [2]TimeStats
}

// mixMachine is the pool recycle tests run on: small enough that every
// frame is reused many times.
func mixMachine(pageSize, frames int64) hw.Params {
	p := hw.Default()
	p.PageSize = pageSize
	p.MemoryBytes = frames * pageSize
	return p
}

// runMix drives two address spaces on one pool of p through a seeded
// interleaving of loads, stores, hints, warm-start preloads and idle
// time — every path that maps a frame — checks the pool's invariants
// along the way, and returns the outcome with the pool it ran on.
func runMix(t *testing.T, p hw.Params) (mixOutcome, *Pool) {
	t.Helper()
	c := sim.NewClock()
	fs := stripefs.New(c, p, nil)
	pl := NewPool(c, p)
	pages := [2]int64{4 * p.Frames(), 3 * p.Frames()}
	var vms [2]*VM
	for i := range vms {
		f, err := fs.Create("space", pages[i])
		if err != nil {
			t.Fatal(err)
		}
		vms[i] = pl.Attach(f, nil)
		vms[i].SetQuota(p.Frames() / 2)
		if _, err := vms[i].Alloc("x", pages[i]*p.PageSize); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(99))
	for s := 0; s < 3000; s++ {
		i := rng.Intn(2)
		v, page := vms[i], rng.Int63n(pages[i])
		addr := page*p.PageSize + rng.Int63n(p.PageSize/8)*8
		n := min64(1+rng.Int63n(8), pages[i]-page)
		switch rng.Intn(8) {
		case 0, 1:
			_ = v.Load(addr)
		case 2, 3:
			v.Store(addr, v.Load(addr)*31+uint64(s)+1)
		case 4:
			v.Prefetch(page, n)
		case 5:
			v.Release(page, n)
		case 6:
			v.Preload(page, n)
		case 7:
			c.Advance(sim.Time(rng.Int63n(int64(20 * sim.Millisecond))))
		}
		if s%100 == 0 {
			if err := pl.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", s, err)
			}
		}
	}
	var out mixOutcome
	for i, v := range vms {
		v.Finish()
		out.prints[i] = v.Fingerprint()
	}
	c.Drain()
	if err := pl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	out.end = c.Now()
	for i, v := range vms {
		out.stats[i], out.times[i] = v.Stats(), v.Times()
	}
	return out, pl
}

// TestPoolAdoptsDirtySlab is the proof that NewPool may skip zeroing an
// adopted slab: a mix run on frame storage full of poison leaves the
// same fingerprints, statistics, times and final clock as one run on
// fresh memory. A stash at least the pool's size is adopted and, on
// Recycle, handed back whole; a smaller one is left where it is.
func TestPoolAdoptsDirtySlab(t *testing.T) {
	defer setStash(nil)
	p := mixMachine(4096, 24)
	words := p.Frames() * p.PageSize / 8

	setStash(nil)
	want, _ := runMix(t, p)

	// The pool's own size, and a larger pool's slab: both are adopted,
	// the pool sees exactly its own words, and Recycle returns the slab
	// at its full length.
	for _, other := range []hw.Params{p, mixMachine(4096, 48)} {
		dirty := poisoned(other.Frames() * other.PageSize / 8)
		setStash(dirty)
		got, pl := runMix(t, p)
		if &pl.words[0] != &dirty[0] || int64(len(pl.words)) != words {
			t.Fatalf("a %d-word stash was not adopted as %d words by a %d-word pool", len(dirty), len(pl.words), words)
		}
		if stashLen() != 0 {
			t.Fatal("the adopted slab is still in the stash")
		}
		if got != want {
			t.Fatalf("a dirty %d-word slab changed the run:\n  got  %+v\n  want %+v", len(dirty), got, want)
		}
		pl.Recycle()
		if stashLen() != len(dirty) {
			t.Fatalf("Recycle stashed %d words of a %d-word slab", stashLen(), len(dirty))
		}
	}

	// A smaller slab, a small-page pool's, stays stashed; the pool makes
	// its own storage and the run is unchanged.
	small := mixMachine(64, 24)
	stale := poisoned(small.Frames() * small.PageSize / 8)
	setStash(stale)
	got, pl := runMix(t, p)
	if int64(len(pl.words)) != words || stashLen() != len(stale) {
		t.Fatalf("a %d-word stash was taken by a %d-word pool", len(stale), words)
	}
	if got != want {
		t.Fatalf("run beside a %d-word stash differs:\n  got  %+v\n  want %+v", len(stale), got, want)
	}

	// The same proof at a 64-byte page, where a frame is eight words and
	// a short copy would show.
	setStash(nil)
	want, _ = runMix(t, small)
	setStash(poisoned(small.Frames() * small.PageSize / 8))
	if got, _ := runMix(t, small); got != want {
		t.Fatalf("a dirty slab changed the 64-byte-page run:\n  got  %+v\n  want %+v", got, want)
	}
}

// TestPoolRecycleKeepsLargestSlab: the stash has one slot and a smaller
// donation does not displace a larger one.
func TestPoolRecycleKeepsLargestSlab(t *testing.T) {
	defer setStash(nil)
	setStash(nil)
	c := sim.NewClock()
	small, large := NewPool(c, mixMachine(4096, 16)), NewPool(c, mixMachine(4096, 32))
	smallWords, largeWords := len(small.words), len(large.words)
	small.Recycle()
	if stashLen() != smallWords {
		t.Fatalf("stash holds %d words after a %d-word donation", stashLen(), smallWords)
	}
	large.Recycle()
	if stashLen() != largeWords {
		t.Fatalf("a larger donation did not replace the stash: %d words", stashLen())
	}
	NewPool(c, mixMachine(4096, 16)).Recycle()
	if stashLen() != largeWords {
		t.Fatalf("a smaller donation displaced the stash: %d words", stashLen())
	}
}

// mustPanic runs f and requires a panic whose message contains want.
func mustPanic(t *testing.T, what, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), want) {
			t.Fatalf("%s: recovered %v, want a panic mentioning %q", what, r, want)
		}
	}()
	f()
}

// TestPoolRecycleDropsStorage: after Recycle the pool and every attached
// address space have let go of the slab. Peek and Fingerprint of a
// flushed single-run space read its backing store and answer exactly as
// the frames did; touching a page that is still mapped panics — it cannot
// reach the next pool's data — and the accounting views stay readable.
func TestPoolRecycleDropsStorage(t *testing.T) {
	defer setStash(nil)
	c, v := newVM(t, 16, 64)
	ps := v.Params().PageSize
	base, err := v.Alloc("x", 64*ps)
	if err != nil {
		t.Fatal(err)
	}
	for page := int64(0); page < 8; page++ {
		v.StoreI64(base+page*ps+page*8, page+1)
	}
	v.Finish()
	c.Drain()
	stats, times, resident, sum := v.Stats(), v.Times(), v.ResidentFrames(), v.Fingerprint()
	if !v.Resident(7) {
		t.Fatal("the last page stored is not resident: the test reads nothing from frames")
	}

	v.Pool().Recycle()
	if v.words != nil || v.pool.words != nil {
		t.Fatal("Recycle left a reference to the donated slab")
	}
	for page := int64(0); page < 8; page++ {
		if got := v.PeekI64(base + page*ps + page*8); got != page+1 {
			t.Fatalf("Peek of page %d after Recycle = %d, want %d", page, got, page+1)
		}
	}
	if v.Fingerprint() != sum {
		t.Fatal("Fingerprint after Recycle differs from the frames' one")
	}
	mustPanic(t, "LoadFast after Recycle", "out of range", func() { v.LoadFast(base) })
	mustPanic(t, "PageSpan after Recycle", "out of range", func() { v.PageSpan(base, 1) })
	const finished = `of "space" touched after its run finished`
	mustPanic(t, "Load after Recycle", finished, func() { v.Load(base) })
	mustPanic(t, "Store after Recycle", finished, func() { v.Store(base, 1) })
	mustPanic(t, "TouchAsync after Recycle", finished, func() { v.TouchAsync(20) })
	if v.Stats() != stats || v.Times() != times || v.ResidentFrames() != resident {
		t.Fatal("Recycle changed the accounting views")
	}
	if err := v.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPoolRecycleUnflushed: a write-back in flight makes Recycle panic
// with that reason and keep the slab. A page stored to while its
// write-back was in flight is dirty after Finish — its frame holds the
// only copy — and Recycle hands that copy to the backing store, so Peek
// still reads it and nothing is left dirty.
func TestPoolRecycleUnflushed(t *testing.T) {
	defer setStash(nil)
	_, v := newVM(t, 16, 64)
	ps := v.Params().PageSize
	if _, err := v.Alloc("x", 64*ps); err != nil {
		t.Fatal(err)
	}
	v.StoreI64(3*ps, 7)
	v.Release(3, 1)
	mustPanic(t, "Recycle with a write in flight", `recycling "space" with 1 write-backs in flight`, v.Pool().Recycle)
	if v.words == nil {
		t.Fatal("a refused Recycle dropped the slab")
	}
	v.StoreI64(3*ps+8, 9)
	v.Finish()
	if !v.pt[3].dirty || v.file.PeekPage(3)[1] == 9 {
		t.Fatal("page 3 was flushed after its second store: the test covers nothing")
	}
	v.Pool().Recycle()
	if a, b := v.PeekI64(3*ps), v.PeekI64(3*ps+8); a != 7 || b != 9 {
		t.Fatalf("Peek of page 3 after Recycle = %d, %d, want 7, 9", a, b)
	}
	if v.pt[3].dirty {
		t.Fatal("page 3 still dirty after Recycle stored it")
	}
}
