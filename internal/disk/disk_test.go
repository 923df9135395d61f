package disk

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/sim"
)

func testParams() hw.Params { return hw.Scaled(8 << 20) }

// newDisk returns an idle disk-tier device with private accounting and
// tracing off; a nil sched means FCFS.
func newDisk(c *sim.Clock, p hw.Params, sched Scheduler) *Device {
	return NewBackend(c, p, 0, sched, nil, nil)
}

func TestSingleRequestCompletes(t *testing.T) {
	c := sim.NewClock()
	d := newDisk(c, testParams(), nil)
	done := false
	d.Submit(Request{Block: 0, Pages: 1, Kind: FaultRead, Done: func() { done = true }})
	if !d.Busy() {
		t.Fatal("disk idle right after Submit")
	}
	c.Drain()
	if !done {
		t.Fatal("request never completed")
	}
	if d.Busy() {
		t.Fatal("disk still busy after Drain")
	}
	s := d.Stats()
	if s.Requests[FaultRead] != 1 || s.Pages[FaultRead] != 1 {
		t.Fatalf("stats = %+v, want one 1-page fault read", s)
	}
}

// TestCounterNames: a device registers exactly its nine names, spelled as
// they always were, and building a device formats none of them.
func TestCounterNames(t *testing.T) {
	reg := obs.NewRegistry()
	NewBackend(sim.NewClock(), testParams(), 5, nil, reg, nil)
	var got []string
	for name := range reg.Snapshot().Counters {
		got = append(got, name)
	}
	want := []string{"disk.5.busy_ns", "disk.5.retries", "disk.5.failures"}
	for _, k := range []string{"fault-read", "prefetch-read", "write"} {
		want = append(want, "disk.5.requests."+k, "disk.5.pages."+k)
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("device 5 registered %q, want %q", got, want)
	}
	if n := testing.AllocsPerRun(10, func() { metricPrefix(5) }); n != 0 {
		t.Fatalf("naming device 5 allocated %v times", n)
	}
}

func TestServiceTimeComponents(t *testing.T) {
	p := testParams()
	d := NewDiskCost(p)

	// Same cylinder: no seek, just rotation/2 + transfer.
	same := d.At(0, Request{Block: 1, Pages: 1})
	want := p.RotationTime/2 + p.TransferPerPage
	if same != want {
		t.Fatalf("same-cylinder service = %v, want %v", same, want)
	}

	// Far cylinder costs more than near cylinder.
	near := d.At(0, Request{Block: p.PagesPerCyl, Pages: 1})
	far := d.At(0, Request{Block: p.PagesPerCyl * (p.DiskCylinders - 1), Pages: 1})
	if !(near > same) {
		t.Fatalf("one-cylinder seek %v not > zero-seek %v", near, same)
	}
	if !(far > near) {
		t.Fatalf("full-stroke %v not > single-track %v", far, near)
	}
	if far > same+p.SeekMax+sim.Millisecond {
		t.Fatalf("full-stroke %v exceeds max seek bound", far)
	}
}

func TestMultiPageTransferAmortizesSeek(t *testing.T) {
	p := testParams()
	d := NewDiskCost(p)
	one := d.At(0, Request{Block: 100 * p.PagesPerCyl, Pages: 1})
	four := d.At(0, Request{Block: 100 * p.PagesPerCyl, Pages: 4})
	if four-one != 3*p.TransferPerPage {
		t.Fatalf("4-page − 1-page = %v, want 3×transfer %v", four-one, 3*p.TransferPerPage)
	}
	if four >= 4*one {
		t.Fatal("batched transfer not cheaper than four separate requests")
	}
}

func TestFCFSOrder(t *testing.T) {
	c := sim.NewClock()
	d := newDisk(c, testParams(), FCFS{})
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		d.Submit(Request{Block: int64((5 - i) * 1000), Pages: 1, Kind: Write,
			Done: func() { order = append(order, i) }})
	}
	c.Drain()
	for i, v := range order {
		if v != i {
			t.Fatalf("FCFS completed out of order: %v", order)
		}
	}
}

func TestElevatorReducesSeekTime(t *testing.T) {
	p := testParams()
	run := func(s Scheduler) sim.Time {
		c := sim.NewClock()
		d := newDisk(c, p, s)
		// Alternating far/near blocks: pathological for FCFS.
		blocks := []int64{0, 1900, 10, 1800, 20, 1700, 30, 1600}
		for _, b := range blocks {
			d.Submit(Request{Block: b * p.PagesPerCyl, Pages: 1, Kind: FaultRead})
		}
		c.Drain()
		return d.Stats().BusyTime
	}
	fcfs := run(FCFS{})
	elev := run(&Elevator{})
	if elev >= fcfs {
		t.Fatalf("elevator busy time %v not below FCFS %v", elev, fcfs)
	}
}

func TestUtilization(t *testing.T) {
	c := sim.NewClock()
	p := testParams()
	d := newDisk(c, p, nil)
	d.Submit(Request{Block: 0, Pages: 1, Kind: FaultRead})
	c.Drain()
	busy := d.Stats().BusyTime
	// Let the same amount of idle time pass again.
	c.Advance(busy)
	u := d.Utilization(c.Now())
	if u < 0.45 || u > 0.55 {
		t.Fatalf("utilization = %.3f, want ≈0.5", u)
	}
	if d.Utilization(0) != 0 {
		t.Fatal("utilization at elapsed=0 should be 0")
	}
}

func TestZeroPageRequestPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-page request did not panic")
		}
	}()
	newDisk(sim.NewClock(), testParams(), nil).Submit(Request{Block: 0, Pages: 0})
}

func TestKindString(t *testing.T) {
	if FaultRead.String() != "fault-read" || PrefetchRead.String() != "prefetch-read" || Write.String() != "write" {
		t.Fatal("Kind.String() mismatch")
	}
}

// Property: every submitted request completes exactly once, regardless of
// block addresses and scheduler, and busy time equals the sum of the
// service times actually charged.
func TestAllRequestsCompleteProperty(t *testing.T) {
	p := testParams()
	f := func(blocks []uint16, elevator bool) bool {
		if len(blocks) == 0 {
			return true
		}
		c := sim.NewClock()
		var s Scheduler = FCFS{}
		if elevator {
			s = &Elevator{}
		}
		d := newDisk(c, p, s)
		completed := 0
		for _, b := range blocks {
			d.Submit(Request{
				Block: int64(b) % (p.DiskCylinders * p.PagesPerCyl),
				Pages: 1, Kind: PrefetchRead,
				Done: func() { completed++ },
			})
		}
		c.Drain()
		return completed == len(blocks) && d.Stats().RequestsTotal() == int64(len(blocks))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
