package disk

import (
	"math/rand"
	"testing"

	"repro/internal/sim"
)

func TestParseClass(t *testing.T) {
	cases := map[string]Class{
		"gold": Gold, "silver": Silver,
		"best-effort": BestEffort, "be": BestEffort, "besteffort": BestEffort,
	}
	for s, want := range cases {
		got, err := ParseClass(s)
		if err != nil || got != want {
			t.Errorf("ParseClass(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseClass("bronze"); err == nil {
		t.Error("ParseClass(bronze) succeeded, want error")
	}
	if Gold.String() != "gold" || Silver.String() != "silver" || BestEffort.String() != "best-effort" {
		t.Errorf("class names wrong: %v %v %v", Gold, Silver, BestEffort)
	}
}

// TestQoSDemandNeverBehindLowerClassPrefetch is the scheduling property
// the tenant model promises: once a demand read is queued, it is serviced
// before every queued prefetch, including lower-class prefetches that
// arrived earlier; among prefetches, gold precedes silver precedes
// best-effort regardless of arrival order.
func TestQoSDemandNeverBehindLowerClassPrefetch(t *testing.T) {
	c := sim.NewClock()
	d := newDisk(c, testParams(), QoS{})

	var order []string
	mark := func(s string) func() { return func() { order = append(order, s) } }

	// First request starts service immediately and holds the disk; the
	// rest queue up behind it in deliberately inverted priority order.
	d.Submit(Request{Block: 0, Pages: 1, Kind: PrefetchRead, Class: BestEffort, Done: mark("in-service")})
	d.Submit(Request{Block: 1, Pages: 1, Kind: PrefetchRead, Class: BestEffort, Done: mark("pf-be")})
	d.Submit(Request{Block: 2, Pages: 1, Kind: PrefetchRead, Class: Silver, Done: mark("pf-silver")})
	d.Submit(Request{Block: 3, Pages: 1, Kind: Write, Done: mark("write")})
	d.Submit(Request{Block: 4, Pages: 1, Kind: PrefetchRead, Class: Gold, Done: mark("pf-gold")})
	d.Submit(Request{Block: 5, Pages: 1, Kind: FaultRead, Done: mark("demand")})
	c.Drain()

	want := []string{"in-service", "demand", "write", "pf-gold", "pf-silver", "pf-be"}
	if len(order) != len(want) {
		t.Fatalf("completed %d requests, want %d: %v", len(order), len(want), order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("service order = %v, want %v", order, want)
		}
	}
}

// TestQoSFIFOWithinRank: equal-priority requests keep arrival order, so
// the schedule is deterministic.
func TestQoSFIFOWithinRank(t *testing.T) {
	c := sim.NewClock()
	d := newDisk(c, testParams(), QoS{})

	var order []string
	mark := func(s string) func() { return func() { order = append(order, s) } }

	d.Submit(Request{Block: 0, Pages: 1, Kind: Write, Done: mark("w0")})
	d.Submit(Request{Block: 9, Pages: 1, Kind: PrefetchRead, Class: Silver, Done: mark("s1")})
	d.Submit(Request{Block: 3, Pages: 1, Kind: PrefetchRead, Class: Silver, Done: mark("s2")})
	d.Submit(Request{Block: 7, Pages: 1, Kind: PrefetchRead, Class: Silver, Done: mark("s3")})
	c.Drain()

	want := []string{"w0", "s1", "s2", "s3"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("service order = %v, want %v", order, want)
		}
	}
}

// TestQoSNextEqualsFullScan: stopping at the first demand read picks what
// a scan of the whole queue for the first request of least rank picks,
// on random queues of mixed kinds and classes.
func TestQoSNextEqualsFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := testParams()
	queue := make([]Request, 0, 40)
	for n := 0; n < 5000; n++ {
		queue = queue[:0]
		for i := 1 + rng.Intn(40); i > 0; i-- {
			queue = append(queue, Request{Kind: Kind(rng.Intn(int(numKinds))), Class: Class(rng.Intn(3))})
		}
		want := 0
		for i := range queue {
			if qosRank(&queue[i]) < qosRank(&queue[want]) {
				want = i
			}
		}
		if got := (QoS{}).Next(queue, 0, p); got != want {
			t.Fatalf("queue %+v: Next = %d, full scan picks %d", queue, got, want)
		}
	}
}
