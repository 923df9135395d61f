package disk

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
)

// flakyDisk returns a disk with a transient-error injector attached.
func flakyDisk(t *testing.T, rate float64, pol fault.RetryPolicy, seed uint64) (*sim.Clock, *Device) {
	t.Helper()
	c := sim.NewClock()
	d := newDisk(c, testParams(), nil)
	prof := fault.Profile{
		Name:          "t",
		Seed:          seed,
		ReadErrorRate: rate,
		Retry:         pol,
	}
	d.SetFaults(fault.NewInjector(prof, nil, nil))
	return c, d
}

// Transient errors are retried in place and the request still completes,
// with the retries accounted.
func TestRetryEventuallySucceeds(t *testing.T) {
	c, d := flakyDisk(t, 0.5, fault.RetryPolicy{MaxAttempts: 64, Timeout: 3600 * sim.Second}, 1)
	var completed int
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
}

// Exhausting MaxAttempts invokes Failed instead of Done, exactly once.
func TestGiveUpInvokesFailed(t *testing.T) {
	// MaxRate-probability errors with 2 attempts: failures are near-certain
	// over many requests.
	c, d := flakyDisk(t, fault.MaxRate, fault.RetryPolicy{MaxAttempts: 2, Timeout: 3600 * sim.Second}, 3)
	var done, failed int
	for i := int64(0); i < 40; i++ {
		d.Submit(Request{Block: i, Pages: 1, Kind: FaultRead,
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
	s := d.Stats()
	if s.Failures != int64(failed) {
		t.Fatalf("Stats.Failures = %d, want %d", s.Failures, failed)
	}
	// With MaxAttempts=2 each failed request retried exactly once.
	if s.Retries < int64(failed) {
		t.Fatalf("Stats.Retries = %d < failures %d", s.Retries, failed)
	}
}

// The per-request time budget fails a request even when attempts remain.
func TestTimeoutBudgetFailsRequest(t *testing.T) {
	// 1ns timeout: the first failed attempt already exceeds the budget, so
	// no retry is ever scheduled despite MaxAttempts allowing many.
	c, d := flakyDisk(t, fault.MaxRate, fault.RetryPolicy{MaxAttempts: 1 << 30, Timeout: 1}, 7)
	var done, failed int
	for i := int64(0); i < 40; i++ {
		d.Submit(Request{Block: i, Pages: 1, Kind: FaultRead,
			Done:   func() { done++ },
			Failed: func() { failed++ },
		})
	}
	c.Drain()
	if done+failed != 40 {
		t.Fatalf("resolved %d+%d of 40 requests", done, failed)
	}
	if failed == 0 {
		t.Fatal("no budget-exhausted failures at MaxRate error probability")
	}
	if s := d.Stats(); s.Retries != 0 {
		t.Fatalf("%d retries scheduled past a 1ns budget", s.Retries)
	}
}

// The same seed must reproduce the same completion times and retry
// counts — fault injection keeps the simulation deterministic.
func TestFaultedDiskDeterministic(t *testing.T) {
	run := func() (sim.Time, Stats) {
		c, d := flakyDisk(t, 0.3, fault.RetryPolicy{}, 99)
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
}

// Latency spikes stretch service time but never lose requests.
func TestSlowdownStretchesServiceTime(t *testing.T) {
	elapsed := func(prof fault.Profile) sim.Time {
		c := sim.NewClock()
		d := newDisk(c, testParams(), nil)
		if prof.Enabled() {
			d.SetFaults(fault.NewInjector(prof, nil, nil))
		}
		n := 0
		for i := int64(0); i < 20; i++ {
			d.Submit(Request{Block: i, Pages: 1, Kind: FaultRead, Done: func() { n++ }})
		}
		c.Drain()
		if n != 20 {
			t.Fatalf("completed %d of 20", n)
		}
		return c.Now()
	}
	base := elapsed(fault.Profile{})
	slow := elapsed(fault.Profile{Name: "s", SlowRate: fault.MaxRate, SlowFactor: 10})
	if slow <= base {
		t.Fatalf("slow-disk run %v not slower than clean run %v", slow, base)
	}
}
