package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/hw"
	"repro/internal/nas"
	"repro/internal/rt"
	"repro/internal/sim"
	"repro/internal/stripefs"
	"repro/internal/tenant"
	"repro/internal/vm"
)

// An isolated drive calls one layer's public API n times on a bare
// fixture and reports host nanoseconds per call. Multiplied by how often
// a pass made that call, it is the outside estimate of the layer's share
// of a span the benchmark cannot see into (exec.run). A drive includes
// whatever the layer calls below itself, so estimates nest, they do not
// add: vm's covers stripefs, disk and sim for the faults it counts.

// nsPerOp times n calls of op, five times over, and returns the median
// nanoseconds per call.
func nsPerOp(n int, op func(i int)) float64 {
	var samples []float64
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			op(i)
		}
		samples = append(samples, float64(time.Since(t0))/float64(n))
	}
	return median(samples)
}

// driveVM builds a bare VM over a fresh striped file on the default
// (disk-tier) machine, as the program's own micro-benchmarks do.
func driveVM(frames, pages int64) (*sim.Clock, *vm.VM, int64) {
	p := hw.Default()
	p.MemoryBytes = frames * p.PageSize
	c := sim.NewClock()
	f, err := stripefs.New(c, p, nil).Create("space", pages)
	if err != nil {
		panic(err) // a fixed, valid size
	}
	v := vm.New(c, p, f)
	base, err := v.Alloc("x", pages*p.PageSize)
	if err != nil {
		panic(err)
	}
	return c, v, base
}

// drives runs every isolated drive at n operations (fewer for the ones
// whose operation is a whole I/O) and returns nanoseconds per operation
// by metric name.
func drives(n int) map[string]float64 {
	out := map[string]float64{}
	noop := func() {}

	// sim: schedule an event and dispatch it, on a clock with nothing else.
	{
		c := sim.NewClock()
		out["sim.ns_per_event"] = nsPerOp(n, func(i int) {
			c.Schedule(sim.Time(i%7+1), noop)
			if i%64 == 63 {
				c.Drain()
			}
		})
		c.Drain()
	}

	// disk: one 4-page request submitted and serviced, per tier.
	for _, tier := range []hw.Tier{hw.TierDisk, hw.TierNVMe, hw.TierFarMemory} {
		c := sim.NewClock()
		d := disk.NewBackend(c, hw.ScaledTier(tier, 8<<20), 0, nil, nil, nil)
		req := disk.Request{Block: 7, Pages: 4, Kind: disk.PrefetchRead, Done: noop}
		out["disk.ns_per_submit."+tier.String()] = nsPerOp(n/4, func(int) {
			d.Submit(req)
			c.Drain()
		})
	}

	// stripefs: a 4-page block read split over the seven disks and merged.
	{
		p := hw.Default()
		c := sim.NewClock()
		f, err := stripefs.New(c, p, nil).Create("space", 1024)
		if err != nil {
			panic(err)
		}
		buf := make([]uint64, p.PageSize/8)
		dst := func(int64) []uint64 { return buf }
		out["stripefs.ns_per_read_block"] = nsPerOp(n/8, func(i int) {
			f.Read(int64(i*4)%1020, 4, disk.PrefetchRead, dst, nil, nil, nil)
			c.Drain()
		})
	}

	// vm: a load that hits, a load that misses (the whole fault cycle down
	// to the disk and back), and a 4-page prefetch call.
	{
		_, v, base := driveVM(64, 8)
		v.Load(base)
		out["vm.ns_per_resident_load"] = nsPerOp(n, func(i int) { v.Load(base + int64(i%512)*8) })
	}
	{
		c, v, base := driveVM(16, 1024)
		ps := v.Params().PageSize
		out["vm.ns_per_demand_fault"] = nsPerOp(n/16, func(i int) { v.Load(base + int64(i%1024)*ps) })
		c.Drain()
	}
	{
		c, v, base := driveVM(256, 4096)
		p0 := v.PageOf(base)
		out["vm.ns_per_prefetch_call"] = nsPerOp(n/16, func(i int) {
			v.Prefetch((p0+int64(i*4))%4092, 4)
			if i%32 == 0 {
				c.Advance(100 * sim.Millisecond)
			}
		})
		c.Drain()
	}

	// rt: a single-page hint for a page the bit vector says is resident,
	// the case the filter exists for.
	{
		_, v, base := driveVM(64, 8)
		v.Load(base)
		layer := rt.Register(v, true)
		page := v.PageOf(base)
		out["rt.ns_per_filtered_hint"] = nsPerOp(n, func(int) { layer.Prefetch1(page) })
	}

	// tenant: one scheduling decision of a server whose only job fits in
	// memory, so a step is a 64-access slice with no I/O behind it.
	{
		steps := max(n/64, 16)
		machine := hw.Default()
		machine.MemoryBytes = 64 * machine.PageSize
		srv, err := tenant.NewServer(tenant.Config{Machine: machine, Sched: "qos"})
		if err != nil {
			panic(err)
		}
		spec := tenant.JobSpec{Name: "steps", Kernel: tenant.KernelSpec{Kind: "scan", Pages: 32, Passes: int64(10*steps + 64), ReadOnly: true}}
		if _, err := srv.Submit(spec); err != nil {
			panic(err)
		}
		for i := 0; i < 16; i++ { // first touches fault; step past them
			srv.Step()
		}
		out["tenant.ns_per_step"] = nsPerOp(steps, func(int) { srv.Step() })
	}
	return out
}

// planCacheCost runs the smallest kernel (BUK at its floor of 4096 keys,
// so that compiling is a visible share of the run) twice on a fresh plan
// cache: the first run compiles, the second hits. Their difference is
// what the cache saves one run.
func planCacheCost() (coldUS, hitUS float64, err error) {
	app := nas.ByName("BUK")
	const scale = 0.001
	prog := app.Build(scale)
	ps := hw.Default().PageSize
	if err := prog.Resolve(ps); err != nil {
		return 0, 0, err
	}
	cfg := core.DefaultConfig(core.MachineFor(nas.DataBytes(prog, ps), app.Ratio()))
	cfg.Seed = app.Seed
	run := func() (float64, error) {
		p := app.Build(scale)
		t0 := time.Now()
		_, err := core.Run(p, cfg)
		return float64(time.Since(t0)) / 1e3, err
	}
	var cold, hit []float64
	for rep := 0; rep < 9; rep++ {
		core.ResetPlanCache()
		c, err := run()
		if err != nil {
			return 0, 0, err
		}
		h, err := run()
		if err != nil {
			return 0, 0, err
		}
		cold, hit = append(cold, c), append(hit, h)
	}
	return median(cold), median(hit), nil
}
