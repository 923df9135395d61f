// Storage backends. The paper's platform is an array of rotating disks,
// but the prefetching question it studies — when do compiler-inserted
// hints pay for themselves? — re-appears on every storage tier down to
// far memory reached over a network (3PO). One Device engine (device.go)
// serves every tier; the tier is a CostModel — the service-time
// arithmetic plus the shape of one service step — and the layers above
// (stripefs, vm, fault injection) are tier-oblivious.
package disk

import (
	"fmt"

	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/sim"
)

// CostModel is a storage tier: the service-time model of its devices
// and the shape of one service step. It owns whatever positional state
// the tier needs (a disk arm's cylinder, nothing for flat-latency
// devices); everything else about a device — queue, faults, retries,
// statistics, tracing — is the Device engine's and is the same on every
// tier.
type CostModel interface {
	// Name identifies the tier ("disk", "nvme", "farmem"); it is also
	// the trace category of the device's spans.
	Name() string
	// Head returns the positional state a Scheduler orders the queue
	// around: the arm's cylinder on disks, 0 on the flat tiers.
	Head() int64
	// Batch returns the most queued requests one service step takes: 1
	// for a serial server, the round trip's capacity on far memory.
	Batch() int
	// ServiceTime returns the time of one service step carrying batch
	// (never empty; one request on a serial tier) given the device's
	// queue depth at dispatch (waiting requests, in-service excluded),
	// and advances the model's positional state past it.
	ServiceTime(batch []Request, depth int) sim.Time
	// Span labels one service step for the trace: the span's name and
	// its one argument.
	Span(batch []Request) (name, arg string, val int64)
}

// serial is the step shape of a tier that serves one request at a time:
// the step is the request, so the span carries the request's kind and
// block.
type serial struct{}

func (serial) Batch() int { return 1 }

func (serial) Span(batch []Request) (name, arg string, val int64) {
	return batch[0].Kind.String(), "block", batch[0].Block
}

// NewBackend builds one storage device of p's tier: a striped-array
// disk, an NVMe-like flat-latency device, or a far-memory tier; the
// tier picks the cost model and nothing else. sched (nil means FCFS) is
// honored only on the disk tier: the flat tiers have no positional
// state to schedule around and always service FCFS, whatever sched
// says — "qos" included. The device's metrics register in reg as
// "disk.<id>.*" whatever the tier — the array index, not the technology,
// names the device; nil registers nowhere — and service steps become
// spans on track (nil disables).
func NewBackend(clock *sim.Clock, p hw.Params, id int, sched Scheduler, reg *obs.Registry, track *obs.Track) *Device {
	var cost CostModel
	switch p.Tier {
	case hw.TierDisk:
		cost = NewDiskCost(p)
	case hw.TierNVMe:
		cost = NewNVMeCost(p)
	case hw.TierFarMemory:
		cost = NewFarMemCost(p)
	default:
		panic(fmt.Sprintf("disk: unknown storage tier %v", p.Tier))
	}
	if p.Tier != hw.TierDisk {
		sched = nil
	}
	d := &Device{clock: clock, p: p, id: id, sched: sched, cost: cost,
		batch: make([]Request, 0, cost.Batch()), track: track}
	d.stepDoneFn = d.stepDone
	d.metrics = obs.Source{Prefix: metricPrefix(id), Counters: metricNames, Fill: d.readMetrics}
	reg.Register(&d.metrics)
	return d
}

// DiskCost is the disk tier's positional service-time model: seek
// proportional to cylinder distance, half a rotation of latency, and a
// per-page media transfer. Its positional state is the arm's cylinder.
type DiskCost struct {
	serial
	p       hw.Params
	headCyl int64
}

// NewDiskCost returns a disk cost model with the arm at cylinder 0.
func NewDiskCost(p hw.Params) *DiskCost { return &DiskCost{p: p} }

// Name implements CostModel.
func (m *DiskCost) Name() string { return "disk" }

// Head implements CostModel: the arm's current cylinder.
func (m *DiskCost) Head() int64 { return m.headCyl }

// At returns the positional service time for a request starting with
// the head at fromCyl, without moving the arm.
func (m *DiskCost) At(fromCyl int64, r Request) sim.Time {
	cyl := r.Block / m.p.PagesPerCyl
	dist := cyl - fromCyl
	if dist < 0 {
		dist = -dist
	}
	var seek sim.Time
	if dist > 0 {
		span := m.p.SeekMax - m.p.SeekMin
		seek = m.p.SeekMin + sim.Time(int64(span)*dist/m.p.DiskCylinders)
	}
	rot := m.p.RotationTime / 2
	xfer := sim.Time(int64(m.p.TransferPerPage) * r.Pages)
	return seek + rot + xfer
}

// ServiceTime implements CostModel: the positional cost from the current
// head position, leaving the arm at the request's last cylinder. Queue
// depth does not matter to a serial arm.
func (m *DiskCost) ServiceTime(batch []Request, depth int) sim.Time {
	r := batch[0]
	t := m.At(m.headCyl, r)
	m.headCyl = (r.Block + r.Pages - 1) / m.p.PagesPerCyl
	return t
}

// NVMeCost is the NVMe tier's service-time model: no positional state,
// a fixed command latency that amortizes across the device's internal
// parallelism as the queue deepens, plus a per-page media transfer.
type NVMeCost struct {
	serial
	p hw.Params
}

// NewNVMeCost returns the flat-latency cost model for p.
func NewNVMeCost(p hw.Params) *NVMeCost { return &NVMeCost{p: p} }

// Name implements CostModel.
func (m *NVMeCost) Name() string { return "nvme" }

// Head implements CostModel: flash has no arm.
func (m *NVMeCost) Head() int64 { return 0 }

// ServiceTime implements CostModel. A deeper queue lets the device
// overlap command handling across its internal channels, so the
// effective per-command latency shrinks with depth (down to
// latency/parallelism); the media transfer does not amortize.
func (m *NVMeCost) ServiceTime(batch []Request, depth int) sim.Time {
	par := depth + 1 // the request itself counts
	if par > m.p.NVMeParallelism {
		par = m.p.NVMeParallelism
	}
	if par < 1 {
		par = 1
	}
	return m.p.NVMeLatency/sim.Time(par) + sim.Time(int64(m.p.NVMeTransferPerPage)*batch[0].Pages)
}

// FarMemCost is the far-memory tier's model, in the style of 3PO's
// programmed far-memory prefetching: every service step is one network
// round trip carrying up to NetBatchRequests queued requests. While one
// round trip is in flight, newly submitted requests accumulate and form
// the next, so the round-trip latency amortizes across the queue.
//
// Under fault injection the network is the device: the round trip, not
// the request, draws the fault verdict (a lost or browned-out link
// fails the whole batch) and owns the retry budget, so brownout windows
// read as network partitions.
type FarMemCost struct {
	p hw.Params
}

// NewFarMemCost returns the network cost model for p.
func NewFarMemCost(p hw.Params) *FarMemCost { return &FarMemCost{p: p} }

// Name implements CostModel.
func (m *FarMemCost) Name() string { return "farmem" }

// Head implements CostModel: remote memory has no arm.
func (m *FarMemCost) Head() int64 { return 0 }

// Batch implements CostModel: the round trip's request capacity.
func (m *FarMemCost) Batch() int { return m.p.NetBatchRequests }

// ServiceTime implements CostModel: one round trip, one header per wire
// request, and the wire transfer of every page. Requests whose block
// ranges are contiguous coalesce into a single wire request, so a block
// prefetch costs one header, not one per page run. Queue depth does not
// enter — depth is amortized by batching instead.
func (m *FarMemCost) ServiceTime(batch []Request, depth int) sim.Time {
	wireReqs, pages, prevEnd := int64(0), int64(0), int64(-1)
	for i := range batch {
		r := &batch[i]
		if r.Block != prevEnd {
			wireReqs++
		}
		prevEnd = r.Block + r.Pages
		pages += r.Pages
	}
	return m.p.NetRTT +
		sim.Time(int64(m.p.NetPerRequest)*wireReqs) +
		sim.Time(int64(m.p.NetTransferPerPage)*pages)
}

// Span implements CostModel: a round trip and the pages it moves.
func (m *FarMemCost) Span(batch []Request) (name, arg string, val int64) {
	for i := range batch {
		val += batch[i].Pages
	}
	return "round-trip", "pages", val
}
