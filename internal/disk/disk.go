// Package disk models the storage devices of the experimental platform:
// per-device request queues on the simulated clock, pluggable
// scheduling, and a per-tier service-time model — the paper's disks
// (distance-dependent seek, half-rotation latency, per-page media
// transfer), NVMe-like flash, and far memory over a network. As in the
// paper, the scheduler treats prefetch reads exactly like demand (fault)
// reads unless a QoS scheduler is asked for.
package disk

import (
	"fmt"
	"strconv"

	"repro/internal/hw"
	"repro/internal/sim"
)

// Kind classifies disk requests for the Figure 5 breakdown.
type Kind int

const (
	// FaultRead is a demand read triggered by a page fault.
	FaultRead Kind = iota
	// PrefetchRead is an asynchronous read issued for a prefetch hint.
	PrefetchRead
	// Write is a dirty-page write-back.
	Write
	numKinds
)

func (k Kind) String() string {
	switch k {
	case FaultRead:
		return "fault-read"
	case PrefetchRead:
		return "prefetch-read"
	case Write:
		return "write"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Request is one I/O operation against a single device. Block addresses
// are device-local page numbers; Pages contiguous pages are transferred
// in one media pass. Done, if non-nil, runs at completion time.
//
// Failed, if non-nil, runs instead of Done when the request's retry
// budget runs out under fault injection, and the request is over: the
// caller may give it up (stripefs abandons prefetches that way). A nil
// Failed means the request must not fail: the device requeues it with a
// fresh budget until an attempt succeeds, which terminates because
// injected failure rates are below fault.MaxRate and brownouts end.
type Request struct {
	Block  int64
	Pages  int64
	Kind   Kind
	Done   func()
	Failed func()

	// Class tags the request with the issuing tenant's prefetch-priority
	// class, for multi-tenant QoS scheduling. Single-tenant runs leave it
	// zero (Gold), which every scheduler treats exactly as before.
	Class Class
}

// Stats accumulates per-device activity. The service path increments the
// plain fields directly (a device is driven by its run's single simulator
// goroutine); the metrics registry reads them through the device's source
// as "disk.<id>.requests.<kind>", "disk.<id>.pages.<kind>",
// "disk.<id>.busy_ns", "disk.<id>.retries" and "disk.<id>.failures";
// stripefs publishes Requeued summed over its array.
type Stats struct {
	Requests [numKinds]int64 // request count by kind (requeues count anew)
	Pages    [numKinds]int64 // pages moved by kind
	BusyTime sim.Time        // total time the arm/media/link was busy
	Retries  int64           // failed service attempts that were retried
	Failures int64           // requests whose retry budget ran out
	Requeued [numKinds]int64 // of Failures, requests without Failed put back in the queue, by kind
}

// metricNames is a device's metrics table under its "disk.<id>." prefix,
// in readMetrics' order.
var metricNames = []string{
	"requests.fault-read", "requests.prefetch-read", "requests.write",
	"pages.fault-read", "pages.prefetch-read", "pages.write",
	"busy_ns", "retries", "failures",
}

// metricPrefixes holds the "disk.<id>." prefix of the ids every array
// has, so building a device formats no name.
var metricPrefixes = func() (p [16]string) {
	for id := range p {
		p[id] = "disk." + strconv.Itoa(id) + "."
	}
	return p
}()

func metricPrefix(id int) string {
	if id < len(metricPrefixes) {
		return metricPrefixes[id]
	}
	return "disk." + strconv.Itoa(id) + "."
}

// readMetrics is the device's obs.Source.
func (d *Device) readMetrics(c []int64, _ []float64) {
	n := &d.n
	copy(c, n.Requests[:])
	copy(c[numKinds:], n.Pages[:])
	copy(c[2*numKinds:], []int64{int64(n.BusyTime), n.Retries, n.Failures})
}

// RequestsTotal returns the total request count across kinds.
func (s Stats) RequestsTotal() int64 {
	var n int64
	for _, v := range s.Requests {
		n += v
	}
	return n
}

// A Scheduler picks the next request to service from a non-empty queue
// given the current head (cylinder) position. It returns the index of the
// chosen request.
type Scheduler interface {
	Next(queue []Request, headCyl int64, p hw.Params) int
	Name() string
}

// UnknownSchedulerError reports a scheduler name SchedulerFor does not
// know.
type UnknownSchedulerError struct{ Name string }

func (e *UnknownSchedulerError) Error() string {
	return fmt.Sprintf("disk: unknown scheduler %q (want fcfs, elevator, or qos)", e.Name)
}

// SchedulerFor maps a scheduler name — "fcfs" (or ""), "elevator",
// "qos" — to a factory building one scheduler per device (the elevator
// carries per-device sweep state). It is the one place the names are
// spelled; an unknown name is an *UnknownSchedulerError.
func SchedulerFor(name string) (func() Scheduler, error) {
	switch name {
	case "", "fcfs":
		return func() Scheduler { return FCFS{} }, nil
	case "elevator":
		return func() Scheduler { return &Elevator{} }, nil
	case "qos":
		return func() Scheduler { return QoS{} }, nil
	}
	return nil, &UnknownSchedulerError{Name: name}
}

// FCFS services requests strictly in arrival order.
type FCFS struct{}

// Next implements Scheduler.
func (FCFS) Next(queue []Request, headCyl int64, p hw.Params) int { return 0 }

// Name implements Scheduler.
func (FCFS) Name() string { return "fcfs" }

// Elevator is a shortest-seek-in-direction (SCAN) scheduler: it services
// the nearest request at or beyond the head in the sweep direction and
// reverses when nothing remains ahead.
type Elevator struct {
	up bool // current sweep direction; zero value sweeps down first
}

// Next implements Scheduler.
func (e *Elevator) Next(queue []Request, headCyl int64, p hw.Params) int {
	pick := func(dir bool) int {
		idx, dist := -1, int64(-1)
		for i, r := range queue {
			cyl := r.Block / p.PagesPerCyl
			d := cyl - headCyl
			if !dir {
				d = -d
			}
			if d < 0 {
				continue
			}
			if idx < 0 || d < dist {
				idx, dist = i, d
			}
		}
		return idx
	}
	best := pick(e.up)
	if best < 0 {
		e.up = !e.up
		best = pick(e.up)
	}
	if best < 0 {
		best = 0 // unreachable for a non-empty queue, but stay safe
	}
	return best
}

// Name implements Scheduler.
func (e *Elevator) Name() string { return "elevator" }
