package vm

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/hw"
	"repro/internal/sim"
)

// The fault path has one state machine (touchAsync) and two drivers: the
// blocking one under Load, which stalls the CPU where the episode must
// wait, and TouchAsync, whose caller parks instead. This table sets up
// each entry state of a touch episode and runs it through both, on twin
// simulators: the clock, the time breakdown (the blocking driver's stall
// is the other's parked time), the counters, and the page's final state
// must agree, and each row pins how many charges, classifications, and
// waits the episode takes.

const episodePage = 5

// episode is one entry state of a touch of episodePage.
type episode struct {
	name string
	// prof, if non-nil, attaches a fault injector with this profile.
	prof *fault.Profile
	// setup leaves episodePage in the row's entry state. It must be
	// deterministic: it runs once per driver on a fresh VM.
	setup func(t *testing.T, c *sim.Clock, v *VM)

	hits, late, unprefetched, minor int64 // classification deltas
	charges                         int64 // fault-service charges
	waits                           int   // times the episode had to wait
	abandoned                       int64
}

// episodeVM builds a fresh 64-frame machine for one driver of one row.
func episodeVM(t *testing.T, prof *fault.Profile) (*sim.Clock, *VM) {
	t.Helper()
	var c *sim.Clock
	var v *VM
	if prof != nil {
		c, v = newFaultyVM(t, 64, 128, *prof)
	} else {
		c, v = newVM(t, 64, 128)
	}
	if _, err := v.Alloc("x", 128*v.Params().PageSize); err != nil {
		t.Fatal(err)
	}
	return c, v
}

// prefetchArrival reports the simulated time at which a prefetch of
// episodePage issued at time zero lands, measured on a scratch machine.
func prefetchArrival(t *testing.T) sim.Time {
	t.Helper()
	c, v := episodeVM(t, nil)
	v.Prefetch(episodePage, 1)
	c.WaitFor(func() bool { return !v.InTransit(episodePage) })
	if !v.Resident(episodePage) {
		t.Fatal("scratch prefetch did not arrive")
	}
	return c.Now()
}

// abandoningProfile finds a seed under which the first prefetch of
// episodePage is permanently failed by the disks (so a waiter on it wakes
// to an unmapped page), by trying seeds on scratch machines.
func abandoningProfile(t *testing.T) *fault.Profile {
	t.Helper()
	for seed := uint64(1); seed < 200; seed++ {
		prof := fault.Profile{
			Name:          "abandoner",
			Seed:          seed,
			ReadErrorRate: 0.6,
			Retry:         fault.RetryPolicy{MaxAttempts: 2, Timeout: 3600 * sim.Second},
		}
		c, v := episodeVM(t, &prof)
		v.Prefetch(episodePage, 1)
		c.WaitFor(func() bool { return !v.InTransit(episodePage) })
		if v.pt[episodePage].state == unmapped {
			return &prof
		}
	}
	t.Fatal("no seed abandons the prefetch")
	return nil
}

func TestTouchEpisodeBothDrivers(t *testing.T) {
	arrival := prefetchArrival(t)
	const userOps = 10 // pending compute the fault's kernel entry must flush

	rows := []episode{
		{
			name:  "unmapped: demand fault",
			setup: func(t *testing.T, c *sim.Clock, v *VM) {},

			unprefetched: 1, charges: 1, waits: 1,
		},
		{
			name: "resident prefetched: free first touch",
			setup: func(t *testing.T, c *sim.Clock, v *VM) {
				v.Prefetch(episodePage, 1)
				c.AdvanceTo(arrival + sim.Millisecond)
			},
			hits: 1,
		},
		{
			name: "in transit, still in flight after the charge",
			setup: func(t *testing.T, c *sim.Clock, v *VM) {
				v.Prefetch(episodePage, 1)
			},
			late: 1, charges: 1, waits: 1,
		},
		{
			name: "in transit, lands during the charge",
			setup: func(t *testing.T, c *sim.Clock, v *VM) {
				v.Prefetch(episodePage, 1)
				c.AdvanceTo(arrival - v.p.FaultServiceTime/2 - userOps*v.p.OpTime)
			},
			late: 1, charges: 1,
		},
		{
			name: "arrives and is evicted to the free list before the waiter runs",
			setup: func(t *testing.T, c *sim.Clock, v *VM) {
				landed := v.arrivedFn
				v.arrivedFn = func(page int64) {
					landed(page)
					v.releaseOne(page)
				}
				v.Prefetch(episodePage, 1)
			},
			late: 1, minor: 1, charges: 1, waits: 1,
		},
		{
			name: "prefetch abandoned while waiting on it",
			prof: abandoningProfile(t),
			setup: func(t *testing.T, c *sim.Clock, v *VM) {
				v.Prefetch(episodePage, 1)
			},
			late: 1, charges: 2, waits: 2, abandoned: 1,
		},
		{
			name: "free-listed, prefetched and never touched: hit counted once",
			setup: func(t *testing.T, c *sim.Clock, v *VM) {
				v.Prefetch(episodePage, 1)
				c.AdvanceTo(arrival + sim.Millisecond)
				v.Release(episodePage, 1)
			},
			hits: 1, minor: 1,
		},
	}

	type outcome struct {
		now   sim.Time
		times TimeStats
		stats Stats
		pte   pte
		bit   bool
		// Accounting at entry, to turn the totals into the touch's deltas.
		before    Stats
		sysBefore sim.Time
		// stalled: the blocking driver accrued idle time; waits: how
		// often the non-blocking driver was told to park.
		stalled bool
		waits   int
	}
	run := func(t *testing.T, row *episode, blocking bool) outcome {
		c, v := episodeVM(t, row.prof)
		row.setup(t, c, v)
		checkInvariants(t, v)
		out := outcome{before: v.Stats(), sysBefore: v.Times().SysFault}
		v.AddUserOps(userOps)
		addr := episodePage * v.p.PageSize

		var parked sim.Time
		if blocking {
			idle := v.Times().Idle
			v.Load(addr)
			out.stalled = v.Times().Idle > idle
		} else {
			for !v.TouchAsync(episodePage) {
				if !v.InTransit(episodePage) {
					t.Fatal("TouchAsync = false on a page that is not in transit")
				}
				// Asking again while the read is still in flight is
				// harmless: no second charge, no second classification.
				now, st := c.Now(), v.Stats()
				if v.TouchAsync(episodePage) || c.Now() != now || v.Stats() != st {
					t.Fatal("a repeated TouchAsync on an in-flight page was not a no-op")
				}
				out.waits++
				parked += c.WaitFor(func() bool { return !v.InTransit(episodePage) })
			}
			if e := &v.pt[episodePage]; row.hits == 1 && row.minor == 0 && e.referenced {
				t.Error("the free first touch of a resident page marked it referenced")
			}
			if _, ok := v.LoadFast(addr); !ok {
				t.Fatal("page not hot after TouchAsync = true")
			}
		}
		if v.faultPage != -1 {
			t.Errorf("episode left open on page %d", v.faultPage)
		}
		checkInvariants(t, v)
		out.now, out.times, out.stats = c.Now(), v.Times(), v.Stats()
		out.times.Idle += parked
		out.pte, out.bit = v.pt[episodePage], v.bitvec.Get(episodePage)
		return out
	}

	for i := range rows {
		row := &rows[i]
		t.Run(row.name, func(t *testing.T) {
			b, a := run(t, row, true), run(t, row, false)
			if b.now != a.now {
				t.Errorf("clock: blocking %v, non-blocking %v", b.now, a.now)
			}
			if b.times != a.times {
				t.Errorf("times (parked time counted as idle):\nblocking     %+v\nnon-blocking %+v", b.times, a.times)
			}
			if b.stats != a.stats || b.before != a.before || b.sysBefore != a.sysBefore {
				t.Errorf("stats:\nblocking     %+v\nnon-blocking %+v", b.stats, a.stats)
			}
			if b.pte != a.pte || b.bit != a.bit {
				t.Errorf("page state: blocking %+v bit=%v, non-blocking %+v bit=%v", b.pte, b.bit, a.pte, a.bit)
			}
			if b.stalled != (a.waits > 0) {
				t.Errorf("blocking driver stalled=%v but the other parked %d times", b.stalled, a.waits)
			}

			s, before := a.stats, a.before
			got := [...]int64{
				s.PrefetchedHits - before.PrefetchedHits,
				s.PrefetchedFaults - before.PrefetchedFaults,
				s.NonPrefetchedFault - before.NonPrefetchedFault,
				s.MinorFaults - before.MinorFaults,
				s.PrefetchAbandoned - before.PrefetchAbandoned,
				int64(a.waits),
			}
			want := [...]int64{row.hits, row.late, row.unprefetched, row.minor, row.abandoned, int64(row.waits)}
			if got != want {
				t.Errorf("hits/late/unprefetched/minor/abandoned/waits = %v, want %v", got, want)
			}
			p := hw.Default()
			if sys, want := a.times.SysFault-a.sysBefore, sim.Time(row.charges)*p.FaultServiceTime+sim.Time(row.minor)*p.MinorFaultTime; sys != want {
				t.Errorf("fault system time = %v, want %d fault-service + %d minor = %v", sys, row.charges, row.minor, want)
			}
			if a.pte.state != hot || !a.pte.touched || !a.pte.referenced || a.pte.prefetched {
				t.Errorf("page not left hot, touched, referenced, unclassified: %+v", a.pte)
			}
		})
	}
}
