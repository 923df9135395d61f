package disk

import (
	"fmt"

	"repro/internal/hw"
)

// Class is a prefetch-priority class. In multi-tenant operation every
// request carries the class of its issuing tenant; the QoS scheduler
// orders queued prefetches by class, and the OS drops best-effort
// prefetches first under memory pressure (the paper's non-binding-hint
// policy, split into service tiers). The zero value is Gold, so
// single-tenant runs — which never set a class — schedule exactly as
// before.
type Class uint8

const (
	// Gold prefetches keep the paper's original drop thresholds and are
	// serviced ahead of the other classes.
	Gold Class = iota
	// Silver prefetches are dropped at moderate pressure and queue
	// behind gold.
	Silver
	// BestEffort prefetches are the first dropped under pressure and
	// the last serviced.
	BestEffort
	numClasses
)

func (c Class) String() string {
	switch c {
	case Gold:
		return "gold"
	case Silver:
		return "silver"
	case BestEffort:
		return "best-effort"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// ParseClass parses a class name ("gold", "silver", "best-effort" or the
// shorthand "be").
func ParseClass(s string) (Class, error) {
	switch s {
	case "gold":
		return Gold, nil
	case "silver":
		return Silver, nil
	case "best-effort", "besteffort", "be":
		return BestEffort, nil
	}
	return 0, fmt.Errorf("disk: unknown QoS class %q (want gold, silver or best-effort)", s)
}

// QoS is the multi-tenant scheduler: demand reads are always serviced
// before any queued prefetch (a demand fault never queues behind a
// lower-class prefetch that arrived earlier), write-backs — which
// replenish the frame pool — come next, and prefetches are ordered
// gold < silver < best-effort. Within a rank, arrival order (FCFS) is
// preserved, so the schedule is deterministic.
//
// Like the Elevator, QoS reorders only the queue; a request already in
// service is never preempted.
type QoS struct{}

// Next implements Scheduler. Rank 0 is the least, so the scan stops at
// the first demand read.
func (QoS) Next(queue []Request, headCyl int64, p hw.Params) int {
	best := 0
	bestRank := qosRank(&queue[0])
	for i := 1; i < len(queue) && bestRank > 0; i++ {
		if r := qosRank(&queue[i]); r < bestRank {
			best, bestRank = i, r
		}
	}
	return best
}

// Name implements Scheduler.
func (QoS) Name() string { return "qos" }

// qosRank orders requests: demand reads first, then write-backs, then
// prefetches by class.
func qosRank(r *Request) int {
	switch r.Kind {
	case FaultRead:
		return 0
	case Write:
		return 1
	default:
		return 2 + int(r.Class)
	}
}
