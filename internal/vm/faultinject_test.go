package vm

import (
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/stripefs"
)

// newFaultyVM builds a VM over a faulted file system: the injector is
// attached to both the disks (transient errors, slowdowns, brownouts)
// and the VM (pressure drops), as core does.
func newFaultyVM(t testing.TB, frames, spacePages int64, prof fault.Profile) (*sim.Clock, *VM) {
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
	v := New(c, p, f)
	inj := fault.NewInjector(prof, nil, nil)
	fs.SetFaults(inj)
	v.SetFaults(inj)
	return c, v
}

// Synthetic memory pressure drops prefetch hints through the normal
// non-binding-drop path; the pages still arrive correctly on demand.
func TestPressureDropsPrefetches(t *testing.T) {
	prof, _ := fault.ProfileByName("pressure")
	prof.Seed = 5
	c, v := newFaultyVM(t, 64, 128, prof)
	base, _ := v.Alloc("x", 128*v.Params().PageSize)
	ps := v.Params().PageSize

	for p := int64(0); p < 96; p += 8 {
		v.Prefetch(p, 8)
		c.Advance(2 * sim.Millisecond)
	}
	s := v.Stats()
	if s.PrefetchDropped == 0 {
		t.Fatalf("35%% drop rate dropped nothing: %+v", s)
	}
	if err := v.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Dropped pages are merely unprefetched: loads still work.
	for p := int64(0); p < 96; p++ {
		if got := v.Load(base + p*ps); got != 0 {
			t.Fatalf("page %d read %#x, want zero-fill", p, got)
		}
	}
	if err := v.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// An abandoned prefetch reverts its page to unmapped; the application's
// later touch takes a demand fault (classified as a late prefetched
// fault) and still observes the right data.
func TestAbandonedPrefetchRecoversViaDemandFault(t *testing.T) {
	prof := fault.Profile{
		Name:          "abandoner",
		Seed:          9,
		ReadErrorRate: 0.6,
		Retry:         fault.RetryPolicy{MaxAttempts: 2, Timeout: 3600 * sim.Second},
	}
	c, v := newFaultyVM(t, 64, 128, prof)
	base, _ := v.Alloc("x", 128*v.Params().PageSize)
	ps := v.Params().PageSize

	// Seed distinctive on-disk contents without simulated I/O.
	for p := int64(0); p < 128; p++ {
		v.file.SetPageWords(p, []uint64{uint64(p) | uint64(p>>1)<<8})
	}
	for p := int64(0); p < 96; p += 8 {
		v.Prefetch(p, 8)
		c.Advance(5 * sim.Millisecond)
	}
	s := v.Stats()
	if s.PrefetchAbandoned == 0 {
		t.Fatalf("harsh profile abandoned no prefetches: %+v", s)
	}
	if err := v.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for p := int64(0); p < 96; p++ {
		want := uint64(byte(p)) | uint64(byte(p>>1))<<8
		if got := v.Load(base + p*ps); got != want {
			t.Fatalf("page %d read %#x, want %#x", p, got, want)
		}
	}
	s = v.Stats()
	// Every abandoned page that was touched became a fault, not a hit, and
	// it was classified as prefetched ("late"), not unprefetched.
	if s.PrefetchedFaults == 0 {
		t.Fatalf("abandoned prefetches produced no late prefetched faults: %+v", s)
	}
	if err := v.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// The randomized torture test of invariants_test.go, under the chaos
// profile: arbitrary interleavings of touches, stores, hints, and time,
// with every fault kind injected at once. Invariants must hold at every
// checkpoint and every written word must read back exactly.
func TestRandomOperationsUnderChaosFaults(t *testing.T) {
	iters := 6
	if testing.Short() {
		iters = 2
	}
	for trial := 0; trial < iters; trial++ {
		prof, _ := fault.ProfileByName("chaos")
		prof.Seed = uint64(1000 + trial)
		rng := rand.New(rand.NewSource(int64(5500 + trial)))
		frames := int64(8 + rng.Intn(56))
		pages := frames * int64(2+rng.Intn(4))
		c, v := newFaultyVM(t, frames, pages, prof)
		base, err := v.Alloc("x", pages*v.Params().PageSize)
		if err != nil {
			t.Fatal(err)
		}
		ps := v.Params().PageSize

		shadow := map[int64]uint64{}
		for s := 0; s < 400; s++ {
			p := rng.Int63n(pages)
			switch rng.Intn(6) {
			case 0:
				addr := base + p*ps + rng.Int63n(ps/8)*8
				if got, want := v.Load(addr), shadow[addr]; got != want {
					t.Fatalf("trial %d step %d: addr %#x = %#x, want %#x", trial, s, addr, got, want)
				}
			case 1:
				addr := base + p*ps + rng.Int63n(ps/8)*8
				val := uint64(s)<<8 | 1
				v.Store(addr, val)
				shadow[addr] = val
			case 2:
				n := 1 + rng.Int63n(8)
				if p+n > pages {
					n = pages - p
				}
				v.Prefetch(p, n)
			case 3:
				n := 1 + rng.Int63n(8)
				if p+n > pages {
					n = pages - p
				}
				v.Release(p, n)
			case 4:
				v.PrefetchRelease(p, 1, rng.Int63n(pages), 1)
			case 5:
				c.Advance(sim.Time(rng.Int63n(int64(40 * sim.Millisecond))))
			}
			if s%25 == 0 {
				if err := v.CheckInvariants(); err != nil {
					t.Fatalf("trial %d step %d: %v", trial, s, err)
				}
			}
		}
		v.Finish()
		c.Advance(sim.Second)
		if err := v.CheckInvariants(); err != nil {
			t.Fatalf("trial %d final: %v", trial, err)
		}
		for addr, want := range shadow {
			if got := v.Load(addr); got != want {
				t.Fatalf("trial %d final: addr %#x = %#x, want %#x", trial, addr, got, want)
			}
		}
	}
}
