package tenant

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/disk"
	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/rt"
	"repro/internal/sim"
	"repro/internal/stripefs"
	"repro/internal/vm"
)

// testMachine returns a small shared machine: frames physical frames of
// the default 4 KiB pages on the default 7-disk array.
func testMachine(frames int64) hw.Params {
	p := hw.Default()
	p.MemoryBytes = frames * p.PageSize
	return p
}

func mustSubmit(t *testing.T, s *Server, spec JobSpec) *Tenant {
	t.Helper()
	tn, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("submit %q: %v", spec.Name, err)
	}
	return tn
}

// runServer builds a server, submits the jobs, runs to completion, and
// returns the server and its reports.
func runServer(t *testing.T, cfg Config, jobs []JobSpec) (*Server, []Report) {
	t.Helper()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		mustSubmit(t, s, j)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return s, s.Reports()
}

// TestUnknownSchedulerError: a scheduler name disk.SchedulerFor does
// not know is its typed error, the same one core's BackendSpec returns.
func TestUnknownSchedulerError(t *testing.T) {
	_, err := NewServer(Config{Machine: testMachine(96), Sched: "lifo"})
	var unknown *disk.UnknownSchedulerError
	if !errors.As(err, &unknown) || unknown.Name != "lifo" {
		t.Fatalf("NewServer(Sched: lifo) = %v, want *disk.UnknownSchedulerError", err)
	}
}

// TestDeterminism: the same job mix and seed produce byte-identical runs
// — same final clock, same per-tenant fingerprints, finish times, stall
// times, and the same full metrics snapshot. This is the CI determinism
// gate.
func TestDeterminism(t *testing.T) {
	mix := []JobSpec{
		{Name: "scan", Kernel: KernelSpec{Kind: "scan", Pages: 256, Passes: 2}, QuotaFrames: 40},
		{Name: "zipf", Kernel: KernelSpec{Kind: "zipf", Pages: 200, Accesses: 600}, Class: 1, QuotaFrames: 40, Seed: 7},
		{Name: "stride", Kernel: KernelSpec{Kind: "stride", Pages: 128}, Class: 2, HintBudget: 16, Seed: 9},
	}
	run := func() (sim.Time, []Report, obs.Snapshot) {
		cfg := Config{Machine: testMachine(96), Seed: 42, Sched: "qos"}
		s, reports := runServer(t, cfg, mix)
		return s.Clock().Now(), reports, s.Metrics().Snapshot()
	}
	end1, rep1, snap1 := run()
	end2, rep2, snap2 := run()
	if end1 != end2 {
		t.Fatalf("final clock differs across identical runs: %v vs %v", end1, end2)
	}
	for i := range rep1 {
		if rep1[i] != rep2[i] {
			t.Errorf("tenant %d report differs:\n  %+v\n  %+v", i, rep1[i], rep2[i])
		}
	}
	if len(snap1.Counters) != len(snap2.Counters) {
		t.Fatalf("metric snapshots differ in size: %d vs %d", len(snap1.Counters), len(snap2.Counters))
	}
	for name, v1 := range snap1.Counters {
		if v2, ok := snap2.Counters[name]; !ok || v1 != v2 {
			t.Errorf("metric %q = %d vs %d", name, v1, v2)
		}
	}
}

// TestIsolationSoloVsContended: a tenant's final memory image is a pure
// function of its own access stream, so its fingerprint must be
// identical whether it runs alone or against two noisy neighbors
// fighting it for frames and disk bandwidth. This is the CI isolation
// gate.
func TestIsolationSoloVsContended(t *testing.T) {
	victim := JobSpec{Name: "victim", Kernel: KernelSpec{Kind: "zipf", Pages: 220, Accesses: 800}, QuotaFrames: 40, Seed: 3}
	noisy := []JobSpec{
		{Name: "noise-scan", Kernel: KernelSpec{Kind: "scan", Pages: 300, Passes: 3}, Class: 2, QuotaFrames: 30, Seed: 5},
		{Name: "noise-stride", Kernel: KernelSpec{Kind: "stride", Pages: 256, Passes: 2}, Class: 1, QuotaFrames: 30, Seed: 6},
	}
	cfg := Config{Machine: testMachine(96), Seed: 11, Sched: "qos"}

	_, solo := runServer(t, cfg, []JobSpec{victim})
	_, mixed := runServer(t, cfg, append([]JobSpec{victim}, noisy...))

	if solo[0].Fingerprint != mixed[0].Fingerprint {
		t.Fatalf("contention changed the victim's memory image: solo %#x, contended %#x",
			solo[0].Fingerprint, mixed[0].Fingerprint)
	}
	if mixed[0].Finished < solo[0].Finished {
		t.Errorf("contended run finished earlier (%v) than solo (%v)?", mixed[0].Finished, solo[0].Finished)
	}
}

// TestSoloMatchesDirectDrive: a server with exactly one tenant must
// replay the single-run access path tick for tick — same final clock,
// same fault classification, same result — versus hand-driving the same
// kernel on a private VM through the blocking Load/Store path.
func TestSoloMatchesDirectDrive(t *testing.T) {
	spec := JobSpec{Name: "solo", Kernel: KernelSpec{Kind: "scan", Pages: 200, Passes: 2}, Seed: 21}
	cfg := Config{Machine: testMachine(64), Seed: 21}
	s, reports := runServer(t, cfg, []JobSpec{spec})

	// Direct drive: the same kernel stream through vm.Load/Store and the
	// rt layer, no scheduler, on an identical machine.
	p := testMachine(64)
	clock := sim.NewClock()
	fs := stripefs.New(clock, p, nil)
	file, err := fs.Create("0-solo", spec.Kernel.Pages)
	if err != nil {
		t.Fatal(err)
	}
	v := vm.New(clock, p, file)
	layer := rt.Register(v, true)
	if _, err := v.Alloc("data", spec.Kernel.Pages*p.PageSize); err != nil {
		t.Fatal(err)
	}
	k := newKernel(spec.Kernel, cfg.Seed^splitmix(spec.Seed+0), p.PageSize)
	for idx := int64(0); idx < k.total; idx++ {
		if pfPage, pfN, relPage, relN := k.hints(idx); pfN > 0 || relN > 0 {
			if pfN == 1 && relN == 0 {
				layer.Prefetch1(pfPage)
			} else {
				layer.PrefetchRelease(pfPage, pfN, relPage, relN)
			}
		}
		addr := k.pageAt(idx)*p.PageSize + k.wordAt(idx)*8
		v.Store(addr, mixValue(v.Load(addr), k.seed, idx))
		v.AddUserOps(opsPerAccess)
	}
	v.Finish()
	v.Release(0, v.AllocatedPages())
	v.FlushUser()
	directEnd := clock.Now()
	h := v.Fingerprint()
	clock.Drain()

	if reports[0].Fingerprint != h {
		t.Errorf("fingerprint: server %#x, direct %#x", reports[0].Fingerprint, h)
	}
	if reports[0].Finished != directEnd {
		t.Errorf("finish tick: server %v, direct %v", reports[0].Finished, directEnd)
	}
	sm, dm := reports[0].Mem, v.Stats()
	// DaemonScans is pool-global bookkeeping sampled at different
	// instants; every per-tenant counter must match exactly.
	sm.DaemonScans, dm.DaemonScans = 0, 0
	if sm != dm {
		t.Errorf("memory stats diverge:\n  server %+v\n  direct %+v", sm, dm)
	}
	st, dt := s.all[0].vm.Times(), v.Times()
	if st.User != dt.User || st.SysFault != dt.SysFault || st.SysPrefetch != dt.SysPrefetch {
		t.Errorf("time breakdown diverges:\n  server %+v\n  direct %+v", st, dt)
	}
}

// TestAdmissionControl: jobs that can never fit are rejected; jobs that
// do not currently fit queue FIFO and start only when a finishing
// tenant returns its reservation.
func TestAdmissionControl(t *testing.T) {
	s, err := NewServer(Config{Machine: testMachine(64), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(JobSpec{Name: "whale", Kernel: KernelSpec{Kind: "scan", Pages: 64}, MinFrames: s.Capacity() + 1}); err == nil {
		t.Fatal("a job larger than the admissible pool was admitted")
	}
	a := mustSubmit(t, s, JobSpec{Name: "a", Kernel: KernelSpec{Kind: "scan", Pages: 128}, MinFrames: 40})
	b := mustSubmit(t, s, JobSpec{Name: "b", Kernel: KernelSpec{Kind: "scan", Pages: 128}, MinFrames: 40})
	if a.Queued() {
		t.Fatal("first job should be admitted immediately")
	}
	if !b.Queued() {
		t.Fatal("second job should queue: 40+40 frames exceed capacity")
	}
	// A third small job must NOT jump the FIFO queue even though it fits.
	c := mustSubmit(t, s, JobSpec{Name: "c", Kernel: KernelSpec{Kind: "scan", Pages: 16}, MinFrames: 4})
	if !c.Queued() {
		t.Fatal("third job jumped the admission queue")
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	rep := s.Reports()
	if rep[1].Admitted < rep[0].Finished {
		t.Errorf("queued job admitted at %v, before the running job finished at %v", rep[1].Admitted, rep[0].Finished)
	}
	for i, r := range rep {
		if r.Finished == 0 {
			t.Errorf("job %d (%s) never finished", i, r.Name)
		}
	}
	m := s.Metrics()
	if got := m.Counter("admission.admitted").Value(); got != 3 {
		t.Errorf("admitted = %d, want 3", got)
	}
	if got := m.Counter("admission.queued").Value(); got != 2 {
		t.Errorf("queued = %d, want 2", got)
	}
	if got := m.Counter("admission.rejected").Value(); got != 1 {
		t.Errorf("rejected = %d, want 1", got)
	}
}

// TestQuotaFairShare: under steady contention an over-quota tenant is
// reclaimed back toward its quota while an under-quota tenant's
// residency is protected.
func TestQuotaFairShare(t *testing.T) {
	s, err := NewServer(Config{Machine: testMachine(96), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Both walk far more pages than their share. Read-only, so
	// residency reflects reclaim policy alone, not a dirty write-back
	// pipeline the daemon cannot evict. Stride kernels issue no release
	// hints, leaving the pageout daemon as the only source of free
	// frames — exactly the fair-share path under test.
	work := KernelSpec{Kind: "stride", Pages: 400, Passes: 4, ReadOnly: true}
	capped := mustSubmit(t, s, JobSpec{Name: "capped", Kernel: work, QuotaFrames: 24})
	free := mustSubmit(t, s, JobSpec{Name: "free", Kernel: work, Seed: 1})
	maxCapped := int64(0)
	for i := 0; i < 200000 && len(s.running) == 2; i++ {
		if !s.Step() {
			break
		}
		// Sample after the system has warmed into contention.
		if capped.idx > 400 && capped.vm.ResidentFrames() > maxCapped {
			maxCapped = capped.vm.ResidentFrames()
		}
	}
	if capped.idx <= 400 {
		t.Fatal("test never reached steady state")
	}
	// The daemon reclaims asynchronously, so allow transient overshoot of
	// a prefetch batch above quota, but the cap must clearly bind.
	if slack := maxCapped - capped.Spec.QuotaFrames; slack > scanBlock*2 {
		t.Errorf("capped tenant held %d frames against a quota of %d", maxCapped, capped.Spec.QuotaFrames)
	}
	if err := s.Pool().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	_ = free
	for s.Step() {
	}
	s.Clock().Drain()
}

// TestQoSClasses: with the qos disk scheduler, a best-effort tenant's
// prefetches are sacrificed first under pressure, and an identical gold
// job never finishes after its best-effort twin.
func TestQoSClasses(t *testing.T) {
	work := KernelSpec{Kind: "scan", Pages: 300, Passes: 3}
	cfg := Config{Machine: testMachine(72), Seed: 8, Sched: "qos"}
	s, reports := runServer(t, cfg, []JobSpec{
		{Name: "gold", Kernel: work, Class: 0, QuotaFrames: 30},
		{Name: "be", Kernel: work, Class: 2, QuotaFrames: 30, Seed: 1},
	})
	gold, be := reports[0], reports[1]
	if gold.Finished > be.Finished {
		t.Errorf("gold finished at %v, after best-effort at %v", gold.Finished, be.Finished)
	}
	goldDrop := gold.Mem.PrefetchDropped
	beDrop := be.Mem.PrefetchDropped
	if beDrop < goldDrop {
		t.Errorf("best-effort dropped %d prefetches, gold %d: pressure should fall on best-effort first", beDrop, goldDrop)
	}
	if beDrop == 0 {
		t.Log("note: no prefetches were dropped at all; pressure may be too low for the class gate to bite")
	}
	// Per-tenant counters are live in the shared registry.
	for id := range reports {
		if got := s.Metrics().Counter(fmt.Sprintf("tenant.%d.faults", id)).Value(); got != reports[id].Mem.MajorFaults {
			t.Errorf("tenant.%d.faults = %d, want %d", id, got, reports[id].Mem.MajorFaults)
		}
		if s.Metrics().Counter(fmt.Sprintf("tenant.%d.stall_ticks", id)).Value() != int64(reports[id].Stall) {
			t.Errorf("tenant.%d.stall_ticks out of date", id)
		}
	}
}

// TestHintBudget: a tenant with a tiny per-quantum hint budget drops
// prefetch pages at user level and still completes correctly.
func TestHintBudget(t *testing.T) {
	spec := JobSpec{Name: "thrifty", Kernel: KernelSpec{Kind: "stride", Pages: 128, Passes: 2}, HintBudget: 2, Seed: 4}
	cfg := Config{Machine: testMachine(64), Seed: 2}
	_, reports := runServer(t, cfg, []JobSpec{spec})
	if reports[0].RT.BudgetDropped == 0 {
		t.Error("a 2-page quantum budget on a hint-per-access kernel never dropped a hint")
	}
	free := JobSpec{Name: "free", Kernel: spec.Kernel, Seed: 4}
	_, unlimited := runServer(t, cfg, []JobSpec{free})
	if reports[0].Fingerprint != unlimited[0].Fingerprint {
		t.Error("hint budget changed the computed result; hints must stay non-binding")
	}
}

// TestServerInvariants runs a contended mix and checks pool invariants
// at every scheduling step — the multi-tenant analog of the vm package's
// randomized invariant tests.
func TestServerInvariants(t *testing.T) {
	s, err := NewServer(Config{Machine: testMachine(72), Seed: 13, Sched: "qos"})
	if err != nil {
		t.Fatal(err)
	}
	mustSubmit(t, s, JobSpec{Name: "a", Kernel: KernelSpec{Kind: "zipf", Pages: 150, Accesses: 500}, QuotaFrames: 24})
	mustSubmit(t, s, JobSpec{Name: "b", Kernel: KernelSpec{Kind: "scan", Pages: 200}, Class: 2, QuotaFrames: 24})
	steps := 0
	for s.Step() {
		steps++
		if steps%16 == 0 {
			if err := s.Pool().CheckInvariants(); err != nil {
				t.Fatalf("after %d steps: %v", steps, err)
			}
		}
	}
	s.Clock().Drain()
	if err := s.Pool().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentServers: servers share no state but the two process-wide
// recyclers every NewServer adopts from — stripefs's request objects and
// page buffers, vm's frame slab. Two different mixes run from two
// goroutines, several servers each; every departure discards a job's
// backing store and every Run ends by donating the file system's free
// lists and the pool's slab, so later servers — on either goroutine — run
// on frames, page buffers and request objects another server retired,
// none of it zeroed. Each must reproduce its sequential run exactly.
// `make race` runs this under the race detector.
func TestConcurrentServers(t *testing.T) {
	mixes := [][]JobSpec{
		{
			{Name: "scan", Kernel: KernelSpec{Kind: "scan", Pages: 256, Passes: 2}, QuotaFrames: 40},
			{Name: "zipf", Kernel: KernelSpec{Kind: "zipf", Pages: 200, Accesses: 600}, Class: 1, QuotaFrames: 40, Seed: 7},
		},
		{
			{Name: "stride", Kernel: KernelSpec{Kind: "stride", Pages: 128, Passes: 2}, Class: 2, HintBudget: 16, Seed: 9},
			{Name: "scan2", Kernel: KernelSpec{Kind: "scan", Pages: 300}, QuotaFrames: 30, Seed: 5},
		},
	}
	type outcome struct {
		end     sim.Time
		reports []Report
		metrics obs.Snapshot
	}
	run := func(mix int) (outcome, error) {
		s, err := NewServer(Config{Machine: testMachine(96), Seed: uint64(31 + mix), Sched: "qos"})
		if err != nil {
			return outcome{}, err
		}
		for _, j := range mixes[mix] {
			if _, err := s.Submit(j); err != nil {
				return outcome{}, err
			}
		}
		if err := s.Run(); err != nil {
			return outcome{}, err
		}
		return outcome{s.Clock().Now(), s.Reports(), s.Metrics().Snapshot()}, nil
	}
	var want [2]outcome
	for mix := range want {
		var err error
		if want[mix], err = run(mix); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for mix := range want {
		wg.Add(1)
		go func(mix int) {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				got, err := run(mix)
				if err != nil {
					t.Errorf("mix %d round %d: %v", mix, round, err)
					return
				}
				if !reflect.DeepEqual(got, want[mix]) {
					t.Errorf("mix %d round %d: concurrent run differs from the sequential one:\n  got  %+v\n  want %+v",
						mix, round, got.reports, want[mix].reports)
				}
			}
		}(mix)
	}
	wg.Wait()
}

// BenchmarkTenantSteadyState measures the scheduler's hot path — slice
// dispatch, pool-contended touches, reclaim decisions — with three
// tenants in steady state. The CI bench gate keeps it allocation-free:
// the reclaim decision must not allocate per step.
func BenchmarkTenantSteadyState(b *testing.B) {
	s, err := NewServer(Config{Machine: testMachine(96), Seed: 3, Sched: "qos"})
	if err != nil {
		b.Fatal(err)
	}
	// Effectively endless jobs so the set stays at three tenants.
	huge := int64(1 << 40)
	for i, k := range []KernelSpec{
		{Kind: "scan", Pages: 300, Passes: huge},
		{Kind: "stride", Pages: 256, Passes: huge},
		{Kind: "zipf", Pages: 220, Accesses: huge},
	} {
		if _, err := s.Submit(JobSpec{Name: fmt.Sprintf("t%d", i), Kernel: k,
			Class: Class(i), QuotaFrames: 28, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
	// Warm into steady state: all tenants faulting against a full pool.
	for i := 0; i < 4096; i++ {
		s.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// BenchmarkTenantDeparture measures what a finished job costs the
// server: one 2048-page tenant (the end-to-end benchmark's size, on its
// share of a contended pool) from its last access through finish — the
// final write-back, the output fingerprint over the whole region, frame
// release, handing the backing store back and the metrics merge. Running
// the job up to that point is untimed, and done access by access rather
// than through Step, whose slice would run on into finish.
func BenchmarkTenantDeparture(b *testing.B) {
	const pages = 2048
	b.ReportAllocs()
	b.SetBytes(pages * hw.Default().PageSize)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := NewServer(Config{Machine: testMachine(pages / 3), Seed: 5, Sched: "qos"})
		if err != nil {
			b.Fatal(err)
		}
		t, err := s.Submit(JobSpec{Name: "leaver", Kernel: KernelSpec{Kind: "scan", Pages: pages}, Seed: 8})
		if err != nil {
			b.Fatal(err)
		}
		for t.idx < t.kern.total {
			if !t.step() {
				s.clock.WaitFor(func() bool { return !t.vm.InTransit(t.waitPage) })
			}
		}
		t.vm.FlushUser()
		b.StartTimer()
		s.finish(t)
		b.StopTimer()
		if !t.Done() || t.Report().Fingerprint == 0 {
			b.Fatal("tenant did not depart with a fingerprint")
		}
		if err := s.Run(); err != nil { // drain the trailing I/O
			b.Fatal(err)
		}
	}
}

// BenchmarkServerLife measures a whole server: built, twelve contending
// jobs submitted and run to completion, retired. From the second
// iteration on it runs on the previous server's frame slab and page
// buffers, so B/op is what a server costs the heap in steady state.
func BenchmarkServerLife(b *testing.B) {
	machine, jobs := steadyMix()
	var data int64
	for _, j := range jobs {
		data += j.Kernel.Pages * machine.PageSize
	}
	b.ReportAllocs()
	b.SetBytes(data)
	for i := 0; i < b.N; i++ {
		s, err := NewServer(Config{Machine: machine, Seed: 9, Sched: "qos"})
		if err != nil {
			b.Fatal(err)
		}
		for _, j := range jobs {
			if _, err := s.Submit(j); err != nil {
				b.Fatal(err)
			}
		}
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
