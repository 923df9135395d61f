package disk

import (
	"fmt"
	"slices"

	"repro/internal/fault"
	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Device is one simulated storage device: a request queue served one
// service step at a time on the simulated clock. What a step is — one
// request on a disk or NVMe device, one network round trip carrying a
// batch on far memory — and what it costs come from the tier's
// CostModel; the queue, the completion path, fault
// retries and statistics below are the same on every tier. The striped
// file system holds an array of Devices and stripes file pages across
// them.
//
// The contract (enforced per tier by the conformance suite in
// conformance_test.go):
//
//   - Delivery: every submitted request resolves through exactly one of
//     Done or Failed, signalled on the simulated clock, never
//     re-entrantly from Submit. A request submitted from inside a
//     callback queues behind the step in service.
//   - Faults: with an Injector attached, each service attempt consults
//     fault.Injector.Attempt keyed by the device ID — once per step, so
//     per request on a serial tier and per round trip on far memory —
//     and transient failures retry in place under the injector's
//     RetryPolicy with exponential backoff. A step whose policy runs out
//     is exhausted: each of its requests with a Failed handler fails to
//     it, and each without one must not fail, so it re-enters the queue
//     at its tail, behind whatever was submitted during the step, and
//     gets a fresh budget when it is next served. Both count in
//     Failures; a requeued request also counts in Requeued[kind]. Without
//     an injector no request is ever exhausted.
//   - Stats: Requests/Pages/BusyTime are monotonically non-decreasing,
//     and the metrics registry reads the same fields Stats returns.
//   - Allocation: the fault-free steady-state submit/service path
//     allocates nothing.
//
// Timing models differ per tier; data movement does not. Devices only
// decide when completions fire, so a program's results are identical
// across tiers by construction — a property the fault harness checks
// end to end.
type Device struct {
	clock *sim.Clock
	p     hw.Params
	id    int
	sched Scheduler // nil serves in arrival order
	cost  CostModel

	busy    bool
	queue   []Request // queue[head:] waits, in arrival order
	head    int
	batch   []Request // requests of the step in service; cap is the tier's batch size
	n       Stats
	metrics obs.Source
	track   *obs.Track // service-step spans; nil when tracing is off

	// stepDone bound once at construction: a method value per
	// completion would allocate on the fault-free path.
	stepDoneFn func()

	flt   *fault.Injector   // nil injects nothing
	retry fault.RetryPolicy // normalized; zero value only before SetFaults
	upAt  sim.Time          // end of the last brownout a verdict reported: no attempt starts before it
}

// ID returns the device's index within its array.
func (d *Device) ID() int { return d.id }

// Model returns the device's cost model.
func (d *Device) Model() CostModel { return d.cost }

// SetFaults attaches a fault injector (nil detaches) and adopts its
// retry policy. Call before submitting requests; mid-run changes would
// not be wrong, just hard to reason about.
func (d *Device) SetFaults(inj *fault.Injector) {
	d.flt = inj
	d.retry = inj.Retry()
}

// Stats returns a snapshot of the device's accumulated statistics.
func (d *Device) Stats() Stats { return d.n }

// Utilization returns the fraction of the elapsed simulated time the
// device was busy.
func (d *Device) Utilization(elapsed sim.Time) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(d.n.BusyTime) / float64(elapsed)
}

// QueueLen returns the number of requests waiting (not counting those
// in service). The OS consults it to drop prefetch hints when the
// device is overloaded.
func (d *Device) QueueLen() int { return len(d.queue) - d.head }

// Busy reports whether a service step is in flight.
func (d *Device) Busy() bool { return d.busy }

// Submit enqueues a request. Completion is signalled by r.Done (or
// r.Failed) on the simulated clock; the requests of one step complete
// together.
func (d *Device) Submit(r Request) {
	if r.Pages <= 0 {
		panic(fmt.Sprintf("%s %d: request for %d pages", d.cost.Name(), d.id, r.Pages))
	}
	d.push(r)
	if !d.busy {
		d.startNext()
	}
}

// push appends r to the queue. Steps leave from the head by moving it, so
// the live part moves down only when an append finds the array full.
func (d *Device) push(r Request) {
	if len(d.queue) == cap(d.queue) && d.head > 0 {
		d.queue = d.queue[:copy(d.queue, d.queue[d.head:])]
		d.head = 0
	}
	d.queue = append(d.queue, r)
}

// startNext forms the next service step and starts its first attempt.
// The scheduler picks the request that leads the step and it moves to
// the queue head; the step then takes up to the tier's batch size of
// requests off the head, in arrival order.
func (d *Device) startNext() {
	if d.head == len(d.queue) {
		d.queue, d.head, d.busy = d.queue[:0], 0, false
		return
	}
	d.busy = true
	if wait := d.upAt - d.clock.Now(); wait > 0 {
		d.clock.Schedule(wait, d.startNext)
		return
	}
	q := d.queue[d.head:]
	if d.sched != nil {
		if i := d.sched.Next(q, d.cost.Head(), d.p); i > 0 {
			r := q[i]
			copy(q[1:i+1], q[:i])
			q[0] = r
		}
	}
	n := min(cap(d.batch), len(q))
	d.batch = append(d.batch, q[:n]...)
	d.head += n
	for i := range d.batch {
		r := &d.batch[i]
		d.n.Requests[r.Kind]++
		d.n.Pages[r.Kind] += r.Pages
	}
	d.attempt(1, d.clock.Now())
}

// attempt services one try of the step in flight. The step draws one
// fault verdict (a write verdict if it carries any write); on injected
// failure it retries in place — the step keeps the device and the next
// attempt starts after the service time plus exponential backoff —
// until it succeeds or the retry policy is exhausted (attempt count, or
// the time budget measured from the first attempt). A brownout verdict
// fails the attempt at once, serving nothing, and names when the device
// is up again: neither the retry nor, after an exhausted step, the next
// step starts before then. So a step that runs out of budget in a window
// is followed by an attempt at the window's end, when the device is up,
// however the service times and backoffs fall against the brownout
// period. Backoff delays and brownouts keep the device busy for
// scheduling purposes but are idle time, not BusyTime.
func (d *Device) attempt(attempt int, started sim.Time) {
	now := d.clock.Now()
	v := fault.Verdict{Slow: 1}
	if d.flt != nil {
		write := slices.ContainsFunc(d.batch, func(r Request) bool { return r.Kind == Write })
		v = d.flt.Attempt(d.id, write, now)
	}
	var t sim.Time
	if v.Until == 0 {
		t = d.cost.ServiceTime(d.batch, d.QueueLen())
		if v.Slow > 1 {
			t = sim.Time(float64(t) * v.Slow)
		}
		d.n.BusyTime += t
		if d.track != nil { // guard: Span is a call even when untraced
			name, arg, val := d.cost.Span(d.batch)
			d.track.SpanArg(name, d.cost.Name(), now, t, arg, val)
		}
	}
	if !v.Fail {
		d.clock.Schedule(t, d.stepDoneFn)
		return
	}
	d.upAt = max(d.upAt, v.Until)
	wait := max(t+d.retry.Backoff(attempt), d.upAt-now)
	overBudget := d.retry.Timeout > 0 && now+wait-started > d.retry.Timeout
	if attempt >= d.retry.MaxAttempts || overBudget {
		d.clock.Schedule(t, d.exhausted)
		return
	}
	d.n.Retries++
	d.clock.Schedule(wait, func() { d.attempt(attempt+1, started) })
}

// stepDone completes every request of the step in flight, in step
// order, then starts the next step. The batch stays stable during the
// callbacks: completions may Submit new requests, but the device is
// still busy, so they only enqueue.
func (d *Device) stepDone() {
	for i := range d.batch {
		if done := d.batch[i].Done; done != nil {
			done()
		}
	}
	d.batch = d.batch[:0]
	d.startNext()
}

// exhausted ends a step whose retry policy ran out, request by request
// in step order: one with a Failed handler fails to it, one without goes
// back to the queue tail, keeping its Class and its Done. The device is
// still busy, so whatever the handlers submit queues like any other
// arrival.
func (d *Device) exhausted() {
	for _, r := range d.batch {
		d.n.Failures++
		if r.Failed != nil {
			r.Failed()
		} else {
			d.n.Requeued[r.Kind]++
			d.push(r)
		}
	}
	d.batch = d.batch[:0]
	d.startNext()
}
