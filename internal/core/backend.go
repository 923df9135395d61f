// Storage backend selection. A BackendSpec names the storage tier a run
// executes on and optionally overrides the tier's device parameters; it
// is the configuration-side face of the disk.Device API, mirroring how
// fault.Profile fronts the fault plane. ParseBackendSpec gives the CLI
// the same comma-separated key=value syntax as fault.ParseSpec.
package core

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/disk"
	"repro/internal/hw"
	"repro/internal/sim"
)

// BackendSpec selects and parameterizes the storage backend of a run.
// The zero value means "leave Config.Machine alone" (the paper's
// striped-disk array when the machine is hw.Default()). Non-zero fields
// override the corresponding tier defaults; fields of other tiers are
// ignored.
type BackendSpec struct {
	// Tier selects the storage model (disk, nvme, farmem).
	Tier hw.Tier

	// Disks, if positive, sets the number of devices in the array.
	Disks int

	// Sched selects the disk tier's scheduler by its disk.SchedulerFor
	// name: "" or "fcfs" for FCFS, "elevator" for SCAN, "qos" for
	// class-aware QoS ordering (demand faults first, then writes, then
	// prefetches by tenant class). Only the disk tier honors it: the
	// flat tiers have no positional state to schedule around and always
	// service FCFS. Off the disk tier "elevator" is an error; "qos" is
	// accepted (tenant mixes pass it whatever the tier) and ignored.
	Sched string

	// Latency overrides the NVMe tier's command latency.
	Latency sim.Time
	// Parallelism overrides the NVMe tier's internal channel count.
	Parallelism int

	// RTT overrides the far-memory tier's network round-trip time.
	RTT sim.Time
	// Batch overrides the far-memory tier's maximum requests per round
	// trip.
	Batch int

	// Transfer overrides the selected tier's per-page transfer time
	// (media transfer on disk and NVMe, wire transfer on far memory).
	Transfer sim.Time
}

// Validate checks the spec's internal consistency (tier known, scheduler
// meaningful on the tier, overrides positive where set).
func (s *BackendSpec) Validate() error {
	if s == nil {
		return nil
	}
	if s.Tier < hw.TierDisk || s.Tier > hw.TierFarMemory {
		return fmt.Errorf("core: unknown storage tier %d (want one of %s)",
			int(s.Tier), strings.Join(hw.TierNames(), ", "))
	}
	if _, err := disk.SchedulerFor(s.Sched); err != nil {
		return err
	}
	if s.Sched == "elevator" && s.Tier != hw.TierDisk {
		return fmt.Errorf("core: scheduler %q is meaningless on tier %s (only the disk tier has an arm to schedule)",
			s.Sched, s.Tier)
	}
	if s.Disks < 0 {
		return fmt.Errorf("core: negative device count %d", s.Disks)
	}
	if s.Latency < 0 || s.RTT < 0 || s.Transfer < 0 {
		return fmt.Errorf("core: negative backend timing override")
	}
	if s.Parallelism < 0 || s.Batch < 0 {
		return fmt.Errorf("core: negative backend sizing override")
	}
	return nil
}

// Apply rebuilds p's storage subsystem for the spec's tier, keeping p's
// memory system, OS costs, and CPU model: the tier defaults come from
// hw.DefaultTier and the spec's non-zero overrides are layered on top.
// A nil spec returns p unchanged.
func (s *BackendSpec) Apply(p hw.Params) (hw.Params, error) {
	if s == nil {
		return p, nil
	}
	if err := s.Validate(); err != nil {
		return hw.Params{}, err
	}
	td := hw.DefaultTier(s.Tier)
	out := p
	out.Tier = s.Tier
	out.NumDisks = td.NumDisks
	out.NVMeLatency = td.NVMeLatency
	out.NVMeTransferPerPage = td.NVMeTransferPerPage
	out.NVMeParallelism = td.NVMeParallelism
	out.NetRTT = td.NetRTT
	out.NetTransferPerPage = td.NetTransferPerPage
	out.NetPerRequest = td.NetPerRequest
	out.NetBatchRequests = td.NetBatchRequests
	if s.Disks > 0 {
		out.NumDisks = s.Disks
	}
	switch s.Tier {
	case hw.TierNVMe:
		if s.Latency > 0 {
			out.NVMeLatency = s.Latency
		}
		if s.Parallelism > 0 {
			out.NVMeParallelism = s.Parallelism
		}
		if s.Transfer > 0 {
			out.NVMeTransferPerPage = s.Transfer
		}
	case hw.TierFarMemory:
		if s.RTT > 0 {
			out.NetRTT = s.RTT
		}
		if s.Batch > 0 {
			out.NetBatchRequests = s.Batch
		}
		if s.Transfer > 0 {
			out.NetTransferPerPage = s.Transfer
		}
	case hw.TierDisk:
		if s.Transfer > 0 {
			out.TransferPerPage = s.Transfer
		}
	}
	if err := out.Validate(); err != nil {
		return hw.Params{}, err
	}
	return out, nil
}

// TierFor maps a tier name ("disk", "nvme"/"flash",
// "farmem"/"far-memory") to its hw.Tier.
func TierFor(name string) (hw.Tier, error) {
	t, ok := hw.TierByName(name)
	if !ok {
		return 0, fmt.Errorf("core: unknown storage tier %q (want one of %s)",
			name, strings.Join(hw.TierNames(), ", "))
	}
	return t, nil
}

// MachineForTier is MachineFor on the given storage tier: the tier's
// default platform with memory sized so dataBytes stands in the given
// ratio to it, rounded down to whole pages with a floor of 16.
func MachineForTier(t hw.Tier, dataBytes int64, ratio float64) hw.Params {
	p := hw.DefaultTier(t)
	mem := int64(float64(dataBytes) / ratio)
	mem = mem / p.PageSize * p.PageSize
	if mem < 16*p.PageSize {
		mem = 16 * p.PageSize
	}
	p.MemoryBytes = mem
	return p
}

// ParseBackendSpec parses a CLI backend specification: comma-separated
// key=value pairs among tier, disks, sched, latency, parallelism, rtt,
// batch, and transfer, with a bare name accepted as shorthand for
// tier=<name> ("nvme", "tier=farmem,rtt=40us,batch=32",
// "disk,disks=4,sched=elevator"). Durations use Go syntax ("90us",
// "1.5ms").
func ParseBackendSpec(spec string) (BackendSpec, error) {
	var s BackendSpec
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, found := strings.Cut(part, "=")
		if !found {
			key, val = "tier", key
		}
		switch key {
		case "tier":
			t, err := TierFor(val)
			if err != nil {
				return BackendSpec{}, err
			}
			s.Tier = t
		case "disks":
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return BackendSpec{}, fmt.Errorf("core: bad device count %q", val)
			}
			s.Disks = n
		case "sched":
			if _, err := disk.SchedulerFor(val); err != nil {
				return BackendSpec{}, err
			}
			s.Sched = val
		case "latency":
			t, err := parseSimDuration(val)
			if err != nil {
				return BackendSpec{}, fmt.Errorf("core: bad latency %q: %v", val, err)
			}
			s.Latency = t
		case "rtt":
			t, err := parseSimDuration(val)
			if err != nil {
				return BackendSpec{}, fmt.Errorf("core: bad rtt %q: %v", val, err)
			}
			s.RTT = t
		case "transfer":
			t, err := parseSimDuration(val)
			if err != nil {
				return BackendSpec{}, fmt.Errorf("core: bad transfer %q: %v", val, err)
			}
			s.Transfer = t
		case "parallelism":
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return BackendSpec{}, fmt.Errorf("core: bad parallelism %q", val)
			}
			s.Parallelism = n
		case "batch":
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return BackendSpec{}, fmt.Errorf("core: bad batch size %q", val)
			}
			s.Batch = n
		default:
			return BackendSpec{}, fmt.Errorf("core: unknown spec key %q (want tier, disks, sched, latency, parallelism, rtt, batch, or transfer)", key)
		}
	}
	if err := s.Validate(); err != nil {
		return BackendSpec{}, err
	}
	return s, nil
}

// parseSimDuration parses a Go duration ("90us") into simulated time.
func parseSimDuration(val string) (sim.Time, error) {
	d, err := time.ParseDuration(val)
	if err != nil {
		return 0, err
	}
	if d <= 0 {
		return 0, fmt.Errorf("duration must be positive")
	}
	return sim.Time(d.Nanoseconds()), nil
}
