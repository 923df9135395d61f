package disk

import (
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/hw"
	"repro/internal/sim"
)

// The backend conformance suite: the Device engine must honor the
// contract documented on the type under every tier's cost model — delivery exactly once and
// never re-entrantly from Submit, fault retries and degradation under
// the injector's policy, monotonic statistics, determinism, and a
// zero-allocation fault-free steady state. Each test runs once per
// storage tier.

var conformanceTiers = []hw.Tier{hw.TierDisk, hw.TierNVMe, hw.TierFarMemory}

func newTierBackend(c *sim.Clock, tier hw.Tier) *Device {
	return NewBackend(c, hw.ScaledTier(tier, 8<<20), 0, nil, nil, nil)
}

func forEachTier(t *testing.T, f func(t *testing.T, tier hw.Tier)) {
	for _, tier := range conformanceTiers {
		tier := tier
		t.Run(tier.String(), func(t *testing.T) { f(t, tier) })
	}
}

// Every submitted request completes exactly once, on the clock rather
// than re-entrantly from Submit, and the device drains to idle with its
// counts matching.
func TestConformanceDeliveryExactlyOnce(t *testing.T) {
	forEachTier(t, func(t *testing.T, tier hw.Tier) {
		c := sim.NewClock()
		d := newTierBackend(c, tier)
		const n = 200
		doneCount := make([]int, n)
		var pages int64
		for i := 0; i < n; i++ {
			i := i
			pg := int64(1 + i%4)
			pages += pg
			d.Submit(Request{
				Block: int64(i * 7 % 512), Pages: pg, Kind: Kind(i % int(numKinds)),
				Done: func() { doneCount[i]++ },
			})
			if doneCount[i] != 0 {
				t.Fatal("completion fired re-entrantly from Submit")
			}
		}
		c.Drain()
		for i, v := range doneCount {
			if v != 1 {
				t.Fatalf("request %d completed %d times", i, v)
			}
		}
		if d.Busy() || d.QueueLen() != 0 {
			t.Fatalf("device not idle after Drain: busy=%v queue=%d", d.Busy(), d.QueueLen())
		}
		s := d.Stats()
		if s.RequestsTotal() != n {
			t.Fatalf("Stats.RequestsTotal = %d, want %d", s.RequestsTotal(), n)
		}
		if got := s.Pages[FaultRead] + s.Pages[PrefetchRead] + s.Pages[Write]; got != pages {
			t.Fatalf("Stats pages = %d, want %d", got, pages)
		}
		if s.BusyTime <= 0 {
			t.Fatal("no busy time accumulated")
		}
	})
}

// A request submitted from inside a Done callback queues behind the
// step in service — it neither starts service re-entrantly nor disturbs
// the completions the step still has to deliver — and everything
// completes exactly once.
func TestConformanceSubmitFromDone(t *testing.T) {
	forEachTier(t, func(t *testing.T, tier hw.Tier) {
		c := sim.NewClock()
		d := newTierBackend(c, tier)
		const n = 8
		var order []int
		count := make([]int, 2*n)
		for i := 0; i < n; i++ {
			i := i
			d.Submit(Request{Block: int64(i), Pages: 1, Kind: FaultRead, Done: func() {
				count[i]++
				order = append(order, i)
				queued := d.QueueLen()
				d.Submit(Request{Block: int64(100 + i), Pages: 1, Kind: PrefetchRead, Done: func() {
					count[n+i]++
					order = append(order, n+i)
				}})
				if !d.Busy() || d.QueueLen() != queued+1 || count[n+i] != 0 {
					t.Fatalf("request %d submitted from Done did not just queue: busy=%v queue %d→%d done=%d",
						n+i, d.Busy(), queued, d.QueueLen(), count[n+i])
				}
			}})
		}
		c.Drain()
		for i, v := range count {
			if v != 1 {
				t.Fatalf("request %d completed %d times", i, v)
			}
		}
		// FCFS on every tier here: the first wave in submission order,
		// each follow-up behind everything queued before it.
		for i := 0; i < n; i++ {
			if order[i] != i {
				t.Fatalf("completion order %v: first wave out of order", order)
			}
		}
		for pos, id := range order {
			if id >= n && !slices.Contains(order[:pos], id-n) {
				t.Fatalf("completion order %v: follow-up %d before its parent", order, id)
			}
		}
		if d.Busy() || d.QueueLen() != 0 || d.Stats().RequestsTotal() != 2*n {
			t.Fatalf("device not drained: busy=%v queue=%d requests=%d", d.Busy(), d.QueueLen(), d.Stats().RequestsTotal())
		}
	})
}

// Requests/Pages/BusyTime never decrease across Stats reads.
func TestConformanceStatsMonotonic(t *testing.T) {
	forEachTier(t, func(t *testing.T, tier hw.Tier) {
		c := sim.NewClock()
		d := newTierBackend(c, tier)
		prev := d.Stats()
		for wave := 0; wave < 5; wave++ {
			for i := 0; i < 10; i++ {
				d.Submit(Request{Block: int64(wave*100 + i), Pages: 1, Kind: FaultRead})
			}
			c.Drain()
			s := d.Stats()
			if s.RequestsTotal() < prev.RequestsTotal() || s.BusyTime < prev.BusyTime {
				t.Fatalf("stats went backwards: %+v after %+v", s, prev)
			}
			prev = s
		}
		if prev.RequestsTotal() != 50 {
			t.Fatalf("RequestsTotal = %d, want 50", prev.RequestsTotal())
		}
	})
}

// Transient faults retry in place until success under a generous policy:
// nothing is lost and nothing permanently fails.
func TestConformanceRetryEventuallySucceeds(t *testing.T) {
	forEachTier(t, func(t *testing.T, tier hw.Tier) {
		c := sim.NewClock()
		d := newTierBackend(c, tier)
		d.SetFaults(fault.NewInjector(fault.Profile{
			Name: "t", Seed: 11, ReadErrorRate: 0.5, WriteErrorRate: 0.5,
			Retry: fault.RetryPolicy{MaxAttempts: 64, Timeout: 3600 * sim.Second},
		}, nil, nil))
		completed := 0
		for i := int64(0); i < 50; i++ {
			d.Submit(Request{Block: i, Pages: 1, Kind: FaultRead, Done: func() { completed++ }})
		}
		c.Drain()
		if completed != 50 {
			t.Fatalf("completed %d of 50 requests", completed)
		}
		s := d.Stats()
		if s.Retries == 0 {
			t.Fatal("50% error rate produced no retries")
		}
		if s.Failures != 0 {
			t.Fatalf("%d permanent failures despite a generous policy", s.Failures)
		}
	})
}

// An exhausted retry policy degrades by the request's contract: requests
// with a Failed handler fail permanently (counted), requests without one
// must still complete.
func TestConformanceExhaustionDegradation(t *testing.T) {
	forEachTier(t, func(t *testing.T, tier hw.Tier) {
		c := sim.NewClock()
		d := newTierBackend(c, tier)
		d.SetFaults(fault.NewInjector(fault.Profile{
			Name: "t", Seed: 3, ReadErrorRate: fault.MaxRate, WriteErrorRate: fault.MaxRate,
			Retry: fault.RetryPolicy{MaxAttempts: 2, Timeout: 3600 * sim.Second},
		}, nil, nil))
		var done, failed int
		for i := int64(0); i < 40; i++ {
			d.Submit(Request{Block: i, Pages: 1, Kind: PrefetchRead,
				Done:   func() { done++ },
				Failed: func() { failed++ },
			})
		}
		c.Drain()
		if done+failed != 40 {
			t.Fatalf("resolved %d+%d of 40 requests", done, failed)
		}
		if failed == 0 {
			t.Fatal("no permanent failures at MaxRate error probability")
		}
		if s := d.Stats(); s.Failures != int64(failed) {
			t.Fatalf("Stats.Failures = %d, want %d", s.Failures, failed)
		}
	})
}

// A nil Failed means must-not-fail: an exhausted request without one
// counts once in Failures and once in Requeued[kind] per exhaustion,
// goes back to the queue behind the requests submitted during its step,
// keeping its Class, and completes exactly once.
func TestConformanceNilFailedNeverFails(t *testing.T) {
	forEachTier(t, func(t *testing.T, tier hw.Tier) {
		c := sim.NewClock()
		d := newTierBackend(c, tier)
		d.SetFaults(fault.NewInjector(fault.Profile{
			Name: "t", Seed: 5, ReadErrorRate: fault.MaxRate,
			Retry: fault.RetryPolicy{MaxAttempts: 1},
		}, nil, nil))
		var order []string
		readDone := 0
		d.Submit(Request{Block: 1, Pages: 1, Kind: FaultRead, Class: Silver, Done: func() {
			readDone++
			order = append(order, "read")
		}})
		// The write arrives while the read is in service; writes never
		// fail under this profile.
		d.Submit(Request{Block: 2, Pages: 1, Kind: Write, Done: func() {
			order = append(order, "write")
			// Far memory serves the two in one round trip.
			pending := append(slices.Clone(d.batch), d.queue[d.head:]...)
			i := slices.IndexFunc(pending, func(r Request) bool { return r.Kind == FaultRead })
			if i < 0 {
				t.Fatal("the exhausted read is not back in the queue when the write completes")
			}
			if r := pending[i]; r.Class != Silver || r.Failed != nil || r.Block != 1 {
				t.Fatalf("requeued request %+v lost its Class or grew a Failed handler", r)
			}
		}})
		c.Drain()
		if readDone != 1 || !slices.Equal(order, []string{"write", "read"}) {
			t.Fatalf("completions %v (read done %d times), want the write, then the read once", order, readDone)
		}
		s := d.Stats()
		if s.Requeued[FaultRead] == 0 {
			t.Fatal("no exhaustion at MaxRate error probability and one attempt")
		}
		if s.Failures != s.Requeued[FaultRead] || s.Requeued[Write] != 0 || s.Retries != 0 {
			t.Fatalf("Failures %d, Requeued %v, Retries %d: want every exhaustion counted once in both, no retries",
				s.Failures, s.Requeued, s.Retries)
		}
		if s.Requests[FaultRead] != 1+s.Requeued[FaultRead] {
			t.Fatalf("Requests[fault-read] = %d, want 1 + %d requeues", s.Requests[FaultRead], s.Requeued[FaultRead])
		}
	})
}

// The same seed reproduces the same completion time and statistics:
// fault injection keeps every tier deterministic.
func TestConformanceDeterministic(t *testing.T) {
	forEachTier(t, func(t *testing.T, tier hw.Tier) {
		run := func() (sim.Time, Stats) {
			c := sim.NewClock()
			d := newTierBackend(c, tier)
			d.SetFaults(fault.NewInjector(fault.Profile{
				Name: "t", Seed: 99, ReadErrorRate: 0.3, SlowRate: 0.2, SlowFactor: 4,
			}, nil, nil))
			for i := int64(0); i < 30; i++ {
				d.Submit(Request{Block: i * 7, Pages: 1 + i%3, Kind: Kind(i % int64(numKinds)), Failed: func() {}})
			}
			c.Drain()
			return c.Now(), d.Stats()
		}
		t1, s1 := run()
		t2, s2 := run()
		if t1 != t2 || s1 != s2 {
			t.Fatalf("faulted runs diverged: %v/%+v vs %v/%+v", t1, s1, t2, s2)
		}
	})
}

// The fault-free steady-state submit/service path allocates nothing on
// any tier.
func TestConformanceFaultFreePathAllocs(t *testing.T) {
	forEachTier(t, func(t *testing.T, tier hw.Tier) {
		c := sim.NewClock()
		d := newTierBackend(c, tier)
		done := func() {}
		// Warm up: grow the queue, batch, and event-heap capacities.
		for i := int64(0); i < 32; i++ {
			d.Submit(Request{Block: i, Pages: 1, Kind: FaultRead, Done: done})
		}
		c.Drain()
		req := Request{Block: 5, Pages: 2, Kind: PrefetchRead, Done: done}
		allocs := testing.AllocsPerRun(200, func() {
			d.Submit(req)
			c.Drain()
		})
		if allocs != 0 {
			t.Fatalf("fault-free path allocates %.1f per request, want 0", allocs)
		}
	})
}

// Model identifies the tier and prices an uncontended page read at the
// platform's AvgPageRead on the flat tiers (the disk's positional model
// depends on the arm, which AvgPageRead averages over).
func TestConformanceCostModel(t *testing.T) {
	forEachTier(t, func(t *testing.T, tier hw.Tier) {
		c := sim.NewClock()
		p := hw.ScaledTier(tier, 8<<20)
		d := newTierBackend(c, tier)
		if got := d.Model().Name(); got != tier.String() {
			t.Fatalf("Model().Name() = %q, want %q", got, tier.String())
		}
		if tier == hw.TierDisk {
			return
		}
		got := d.Model().ServiceTime([]Request{{Block: 0, Pages: 1, Kind: FaultRead}}, 0)
		if want := p.AvgPageRead(); got != want {
			t.Fatalf("uncontended page read = %v, want AvgPageRead %v", got, want)
		}
	})
}

// NVMe-specific: queue depth amortizes the command latency down to the
// device's internal parallelism, so a deep queue drains faster per
// request than a serial trickle.
func TestNVMeDepthAmortizesLatency(t *testing.T) {
	p := hw.ScaledTier(hw.TierNVMe, 8<<20)
	m := NewNVMeCost(p)
	shallow := m.ServiceTime([]Request{{Pages: 1}}, 0)
	deep := m.ServiceTime([]Request{{Pages: 1}}, p.NVMeParallelism+5)
	if deep >= shallow {
		t.Fatalf("deep-queue service %v not below shallow %v", deep, shallow)
	}
	floor := p.NVMeLatency/sim.Time(p.NVMeParallelism) + p.NVMeTransferPerPage
	if deep != floor {
		t.Fatalf("deep-queue service %v, want floor %v", deep, floor)
	}
}

// Far-memory-specific: contiguous requests coalesce into one wire
// request and a batch costs one round trip, so fetching a run of blocks
// in one busy period is far cheaper than fetching them serially.
func TestFarMemoryBatchingAmortizesRTT(t *testing.T) {
	p := hw.ScaledTier(hw.TierFarMemory, 8<<20)

	elapsedFor := func(submit func(d *Device, done func())) sim.Time {
		c := sim.NewClock()
		d := NewBackend(c, p, 0, nil, nil, nil)
		submit(d, func() {})
		c.Drain()
		return c.Now()
	}

	// 8 contiguous single-page requests submitted together: the first
	// forms its own round trip, the remaining 7 coalesce into one wire
	// request in the second.
	batched := elapsedFor(func(d *Device, done func()) {
		for i := int64(0); i < 8; i++ {
			d.Submit(Request{Block: i, Pages: 1, Kind: PrefetchRead, Done: done})
		}
	})
	serial := 8 * (p.NetRTT + p.NetPerRequest + p.NetTransferPerPage)
	if batched >= serial {
		t.Fatalf("batched fetch %v not below serial cost %v", batched, serial)
	}
	want := 2*p.NetRTT + 2*p.NetPerRequest + 8*p.NetTransferPerPage
	if batched != want {
		t.Fatalf("batched fetch = %v, want %v", batched, want)
	}

	// Batch size is bounded: NetBatchRequests+1 queued requests need two
	// round trips even when all are contiguous.
	n := int64(p.NetBatchRequests) + 1
	over := elapsedFor(func(d *Device, done func()) {
		d.Submit(Request{Block: 1 << 20, Pages: 1, Kind: FaultRead, Done: done}) // occupy the link
		for i := int64(0); i < n; i++ {
			d.Submit(Request{Block: i, Pages: 1, Kind: PrefetchRead, Done: done})
		}
	})
	if min := 3 * p.NetRTT; over < min {
		t.Fatalf("overfull queue drained in %v, want at least 3 round trips (%v)", over, min)
	}
}

// Far-memory-specific: an unbatched link (NetBatchRequests = 1, every
// step a batch of one) completes the same request stream exactly once
// each and in the same delivery order as the default batch size, clean
// and under retried faults; only the completion times differ.
func TestFarMemoryUnbatchedSameDeliveryOrder(t *testing.T) {
	profiles := map[string]*fault.Profile{
		"clean": nil,
		"flaky": {Name: "t", Seed: 21, ReadErrorRate: 0.4, WriteErrorRate: 0.4, SlowRate: 0.2, SlowFactor: 3,
			Retry: fault.RetryPolicy{MaxAttempts: 64, Timeout: 3600 * sim.Second}},
	}
	for name, prof := range profiles {
		t.Run(name, func(t *testing.T) {
			run := func(batch int) ([]int, sim.Time) {
				p := hw.ScaledTier(hw.TierFarMemory, 8<<20)
				if batch > 0 {
					p.NetBatchRequests = batch
				}
				c := sim.NewClock()
				d := NewBackend(c, p, 0, nil, nil, nil)
				if prof != nil {
					d.SetFaults(fault.NewInjector(*prof, nil, nil))
				}
				const n = 60
				var order []int
				count := make([]int, n)
				submit := func(i int) {
					d.Submit(Request{Block: int64(i * 5 % 97), Pages: int64(1 + i%3), Kind: Kind(i % int(numKinds)),
						Done: func() { count[i]++; order = append(order, i) }})
				}
				for i := 0; i < n/2; i++ {
					submit(i)
				}
				c.Advance(sim.Millisecond) // a second wave lands on a device mid-stream
				for i := n / 2; i < n; i++ {
					submit(i)
				}
				c.Drain()
				for i, v := range count {
					if v != 1 {
						t.Fatalf("batch=%d: request %d completed %d times", batch, i, v)
					}
				}
				return order, c.Now()
			}
			batched, tBatched := run(0)
			unbatched, tUnbatched := run(1)
			if !slices.Equal(batched, unbatched) {
				t.Fatalf("delivery order differs:\n  batched   %v\n  unbatched %v", batched, unbatched)
			}
			if prof == nil && tUnbatched <= tBatched {
				t.Fatalf("unbatched drain %v not slower than batched %v", tUnbatched, tBatched)
			}
		})
	}
}

// NewBackend rejects an unknown tier loudly instead of silently
// defaulting to disks.
func TestNewBackendUnknownTierPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown tier did not panic")
		}
	}()
	p := hw.Scaled(8 << 20)
	p.Tier = hw.Tier(99)
	NewBackend(sim.NewClock(), p, 0, nil, nil, nil)
}
