package main

import (
	"fmt"

	"repro/internal/disk"
	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/tenant"
)

// tenantMix is one server's worth of input: its seed, its jobs, and each
// job's fingerprint when it runs alone. A job's data region is
// bench.Tenants' 256 pages at scale 8, and the pool holds a third of the
// aggregate, so tenants contend. A pass runs several mixes because twelve
// contending tenants are a chaotic system: one mix's makespan moves by
// ±12 % from seed to seed, the sum over six mixes by a third of that,
// which lets two seeds be compared.
type tenantMix struct {
	seed  uint64
	specs []tenant.JobSpec
	solo  []uint64
}

type tenantWorkload struct {
	machine hw.Params
	mixes   []tenantMix
}

// tenantKernel is bench.Tenants' rotation: a streaming scan with
// release-behind hints, a skewed zipf mix, a strided walk.
func tenantKernel(i int, pages int64) tenant.KernelSpec {
	switch i % 3 {
	case 0:
		return tenant.KernelSpec{Kind: "scan", Pages: pages, Passes: 2}
	case 1:
		return tenant.KernelSpec{Kind: "zipf", Pages: pages, Accesses: 3 * pages}
	}
	return tenant.KernelSpec{Kind: "stride", Pages: pages, Passes: 2}
}

// newServer builds the shared machine. devices, if non-nil, collects the
// program's own timeline of the run (see deviceCensus).
func (w *tenantWorkload) newServer(seed uint64, devices *obs.Trace) (*tenant.Server, error) {
	return tenant.NewServer(tenant.Config{Machine: w.machine, Seed: seed, Sched: "qos", Trace: devices})
}

func (w *tenantWorkload) setup(seed uint64, sz sizing) error {
	rng := splitmix(seed)
	w.machine = hw.Default()
	w.machine.MemoryBytes = max(64, int64(sz.tenants)*sz.pages/3) * w.machine.PageSize
	probe, err := w.newServer(0, nil)
	if err != nil {
		return err
	}
	quota := probe.Capacity() / int64(sz.tenants)
	classes := []disk.Class{disk.Gold, disk.Silver, disk.BestEffort}
	w.mixes = make([]tenantMix, sz.mixes)
	for m := range w.mixes {
		mix := &w.mixes[m]
		mix.seed = rng.next()
		for i := 0; i < sz.tenants; i++ {
			k := tenantKernel(i, sz.pages)
			spec := tenant.JobSpec{
				Name:        fmt.Sprintf("m%d-t%d-%s", m, i, k.Kind),
				Kernel:      k,
				Class:       classes[i%len(classes)],
				QuotaFrames: quota,
				Seed:        rng.next(),
			}
			if spec.Class == disk.BestEffort {
				spec.HintBudget = 16 // exercises user-level hint throttling
			}
			mix.specs = append(mix.specs, spec)
		}
		// Isolation reference: a job's final memory image must not depend
		// on who it shared the pool with.
		for i := range mix.specs {
			fp, err := w.soloFingerprint(mix, i)
			if err != nil {
				return err
			}
			mix.solo = append(mix.solo, fp)
		}
	}
	return nil
}

// soloFingerprint runs job i of a mix with the pool to itself. The
// server adds a job's submission index to its seed to derive the access
// stream, so the solo copy, submitted at index 0, carries the index in
// its seed.
func (w *tenantWorkload) soloFingerprint(mix *tenantMix, i int) (uint64, error) {
	srv, err := w.newServer(mix.seed, nil)
	if err != nil {
		return 0, err
	}
	spec := mix.specs[i]
	spec.Seed += uint64(i)
	if _, err := srv.Submit(spec); err != nil {
		return 0, err
	}
	if err := guard(srv.Run); err != nil {
		return 0, err
	}
	return srv.Reports()[0].Fingerprint, nil
}

// runMix brings up a server, submits the mix's jobs and runs them to
// completion, with a span around each of the three steps.
func (w *tenantWorkload) runMix(tr *tracer, id int, mix *tenantMix, devices *obs.Trace) (srv *tenant.Server, tenants []*tenant.Tenant, err error) {
	tr.do("tenant.new_server", id, func() { srv, err = w.newServer(mix.seed, devices) })
	if err != nil {
		return nil, nil, err
	}
	tr.do("tenant.submit", id, func() {
		for _, spec := range mix.specs {
			var t *tenant.Tenant
			if t, err = srv.Submit(spec); err != nil {
				return
			}
			tenants = append(tenants, t)
		}
	})
	if err != nil {
		return nil, nil, err
	}
	tr.do("tenant.run", id, func() { err = guard(srv.Run) })
	return srv, tenants, err
}

func (w *tenantWorkload) pass(tr *tracer) passResult {
	var res passResult
	var m meter
	var t simTotals
	var stall, resident, goldFinish, makespans float64
	var golds, admitted, queued int64
	res.rows = table{
		Title:  "per tenant (simulated clock)",
		Header: []string{"tenant", "class", "finish_s", "stall_s", "major_faults", "prefetched_hits", "dropped", "budget_dropped", "isolated"},
	}
	for mi := range w.mixes {
		mix := &w.mixes[mi]
		res.attempted += len(mix.specs)
		id := tr.newRun(fmt.Sprintf("mix%d", mi))
		var srv *tenant.Server
		var tenants []*tenant.Tenant
		var err error
		m.time(func() { srv, tenants, err = w.runMix(tr, id, mix, nil) })
		if err != nil {
			res.failures = append(res.failures, fmt.Sprintf("mix %d: %v", mi, err))
			continue
		}
		tr.do("tenant.check", id, func() {
			if e := srv.Pool().CheckInvariants(); e != nil {
				res.failures = append(res.failures, fmt.Sprintf("mix %d: pool invariants: %v", mi, e))
			}
			for i, r := range srv.Reports() {
				ok := r.Fingerprint == mix.solo[i]
				if !ok {
					res.failures = append(res.failures, fmt.Sprintf("%s: fingerprint %#x differs from its solo run's %#x", r.Name, r.Fingerprint, mix.solo[i]))
				}
				t.addRun(0, tenants[i].VM().Times(), r.Mem, true)
				t.addRT(r.RT)
				stall += r.Stall.Seconds()
				resident += (r.Finished - r.Admitted).Seconds()
				if r.Class == disk.Gold {
					goldFinish += r.Finished.Seconds()
					golds++
				}
				res.rows.Rows = append(res.rows.Rows, []string{r.Name, r.Class.String(),
					fmt.Sprintf("%.3f", r.Finished.Seconds()), fmt.Sprintf("%.3f", r.Stall.Seconds()),
					fmt.Sprint(r.Mem.MajorFaults), fmt.Sprint(r.Mem.PrefetchedHits), fmt.Sprint(r.Mem.PrefetchDropped),
					fmt.Sprint(r.RT.BudgetDropped), fmt.Sprint(ok)})
			}
		})
		reg := srv.Metrics()
		makespans += srv.Clock().Now().Seconds()
		t.events += srv.Clock().EventsDispatched()
		t.requeued += requeued(reg)
		admitted += reg.Counter("admission.admitted").Value()
		queued += reg.Counter("admission.queued").Value()
	}
	res.spanNS, res.mallocs, res.allocBytes = m.spans, m.mallocs, m.bytes

	// One shared CPU per server: a mix's makespan is its elapsed time, and
	// whatever part of it no tenant computed in is I/O stall.
	t.elapsed, t.pElapsed = makespans, makespans
	t.pIdle = makespans - t.user - t.sysFault - t.sysPrefetch
	t.idle = t.pIdle
	if tr != nil {
		tr.do("tenant.device_census", tr.newRun("device census"), func() {
			if err := w.deviceCensus(&t, makespans); err != nil {
				res.failures = append(res.failures, fmt.Sprintf("device census: %v", err))
			}
		})
	}
	res.sim = t.counts()
	if tr == nil {
		for _, k := range []string{"disk.requests", "disk.write_share", "disk.util_mean", "disk.retries"} {
			delete(res.sim, k)
		}
	} else {
		res.sim["disk.requests.disk"] = float64(t.diskReq)
	}
	res.sim["tenant.admitted"] = float64(admitted)
	res.sim["tenant.queued"] = float64(queued)
	res.sim["tenant.stall_share"] = ratio(stall, resident)
	res.sim["tenant.sim_gold_finish_s"] = ratio(goldFinish, float64(golds))
	return res
}

// deviceCensus counts the device requests of a pass. tenant.Server never
// publishes its devices' counters, so the only outside view of them is
// the program's own timeline: one "disk" span per serviced request.
// Collecting that timeline costs the server more than half its run time
// again, so the census replays the mixes on the side (the simulator is
// deterministic: the replay makes the same requests) and the timed and
// traced runs stay clean. Only the traced pass takes one.
func (w *tenantWorkload) deviceCensus(t *simTotals, makespans float64) error {
	var busy float64
	for mi := range w.mixes {
		devices := obs.NewTrace()
		if _, _, err := w.runMix(nil, 0, &w.mixes[mi], devices); err != nil {
			return err
		}
		for _, e := range devices.Events() {
			if e.Phase != 'X' || e.Cat != "disk" {
				continue
			}
			t.diskReq++
			if e.Name == disk.Write.String() {
				t.diskWrites++
			}
			busy += float64(e.Dur) / 1e9
		}
	}
	t.utilSum, t.utilRuns = ratio(busy, makespans*float64(w.machine.NumDisks)), 1
	return nil
}
