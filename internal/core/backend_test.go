package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/disk"
	"repro/internal/hw"
	"repro/internal/sim"
)

func TestParseBackendSpec(t *testing.T) {
	cases := []struct {
		spec string
		want BackendSpec
	}{
		{"", BackendSpec{}},
		{"disk", BackendSpec{Tier: hw.TierDisk}},
		{"nvme", BackendSpec{Tier: hw.TierNVMe}},
		{"flash", BackendSpec{Tier: hw.TierNVMe}},
		{"farmem", BackendSpec{Tier: hw.TierFarMemory}},
		{"tier=far-memory", BackendSpec{Tier: hw.TierFarMemory}},
		{"disk,disks=4,sched=elevator", BackendSpec{Tier: hw.TierDisk, Disks: 4, Sched: "elevator"}},
		{"disk,sched=qos", BackendSpec{Tier: hw.TierDisk, Sched: "qos"}},
		{"nvme,sched=qos", BackendSpec{Tier: hw.TierNVMe, Sched: "qos"}}, // accepted, ignored: flat tiers are FCFS
		{"nvme, latency=90us, parallelism=16", BackendSpec{Tier: hw.TierNVMe, Latency: 90 * sim.Microsecond, Parallelism: 16}},
		{"tier=farmem,rtt=40us,batch=32,transfer=1500ns", BackendSpec{
			Tier: hw.TierFarMemory, RTT: 40 * sim.Microsecond, Batch: 32, Transfer: 1500 * sim.Nanosecond}},
	}
	for _, c := range cases {
		got, err := ParseBackendSpec(c.spec)
		if err != nil {
			t.Errorf("ParseBackendSpec(%q): %v", c.spec, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseBackendSpec(%q) = %+v, want %+v", c.spec, got, c.want)
		}
	}
}

func TestParseBackendSpecErrors(t *testing.T) {
	bad := []string{
		"tape",
		"tier=tape",
		"disks=0",
		"disks=-3",
		"sched=lifo",
		"nvme,sched=elevator", // no arm to schedule off the disk tier
		"latency=fast",
		"latency=-4us",
		"rtt=0s",
		"parallelism=0",
		"batch=none",
		"color=red",
	}
	for _, spec := range bad {
		if _, err := ParseBackendSpec(spec); err == nil {
			t.Errorf("ParseBackendSpec(%q) accepted an invalid spec", spec)
		}
	}
	// An unknown scheduler is disk's typed error, from the parser and
	// from a hand-built spec alike.
	var unknown *disk.UnknownSchedulerError
	if _, err := ParseBackendSpec("disk,sched=lifo"); !errors.As(err, &unknown) || unknown.Name != "lifo" {
		t.Errorf("ParseBackendSpec(sched=lifo) = %v, want *disk.UnknownSchedulerError", err)
	}
	if err := (&BackendSpec{Tier: hw.TierDisk, Sched: "lifo"}).Validate(); !errors.As(err, &unknown) {
		t.Errorf("Validate(Sched: lifo) = %v, want *disk.UnknownSchedulerError", err)
	}
	if _, err := ParseBackendSpec("tier=tape"); err == nil || !strings.Contains(err.Error(), "disk, farmem, nvme") {
		t.Errorf("unknown-tier error does not list the tiers: %v", err)
	}
}

func TestBackendSpecApply(t *testing.T) {
	base := hw.Scaled(8 << 20)

	// Nil spec: untouched.
	var nilSpec *BackendSpec
	if p, err := nilSpec.Apply(base); err != nil || p != base {
		t.Fatalf("nil spec changed the machine: %v, %v", p, err)
	}

	// NVMe spec keeps the memory system, swaps the storage subsystem,
	// and layers overrides over the tier defaults.
	spec := BackendSpec{Tier: hw.TierNVMe, Latency: 50 * sim.Microsecond, Disks: 2}
	p, err := spec.Apply(base)
	if err != nil {
		t.Fatal(err)
	}
	if p.MemoryBytes != base.MemoryBytes || p.PageSize != base.PageSize || p.OpTime != base.OpTime {
		t.Fatal("Apply touched the memory system or CPU model")
	}
	if p.Tier != hw.TierNVMe || p.NVMeLatency != 50*sim.Microsecond || p.NumDisks != 2 {
		t.Fatalf("overrides not applied: %+v", p)
	}
	if p.NVMeParallelism != hw.DefaultTier(hw.TierNVMe).NVMeParallelism {
		t.Fatal("unset fields did not fall back to tier defaults")
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("applied machine invalid: %v", err)
	}
}

func TestMachineForTier(t *testing.T) {
	for _, tier := range []hw.Tier{hw.TierDisk, hw.TierNVMe, hw.TierFarMemory} {
		p := MachineForTier(tier, 64<<20, 2)
		if err := p.Validate(); err != nil {
			t.Fatalf("MachineForTier(%v) invalid: %v", tier, err)
		}
		if p.Tier != tier {
			t.Fatalf("MachineForTier(%v).Tier = %v", tier, p.Tier)
		}
		if p.MemoryBytes != 32<<20 {
			t.Fatalf("MachineForTier(%v) memory = %d, want data/2", tier, p.MemoryBytes)
		}
	}
}

func TestTierFor(t *testing.T) {
	if tier, err := TierFor("nvme"); err != nil || tier != hw.TierNVMe {
		t.Fatalf("TierFor(nvme) = %v, %v", tier, err)
	}
	if _, err := TierFor("tape"); err == nil {
		t.Fatal("TierFor accepted an unknown tier")
	}
}
