package tenant

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/stripefs"
	"repro/internal/vm"
)

// drainRecyclers empties the process-wide stashes of whatever earlier
// tests left there for machine — stripefs's page buffers, vm's frame
// slab: a throw-away file system and pool adopt them and are never
// recycled.
func drainRecyclers(machine hw.Params) {
	stripefs.New(sim.NewClock(), machine, nil)
	vm.NewPool(sim.NewClock(), machine)
}

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// digest folds every report and the whole shared registry into one
// value, so a test can pin a run's complete outcome as a constant.
func digest(t *testing.T, s *Server) uint64 {
	t.Helper()
	h := fnv.New64a()
	for _, r := range s.Reports() {
		fmt.Fprintf(h, "%+v\n", r)
	}
	var buf bytes.Buffer
	if err := s.Metrics().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	h.Write(buf.Bytes())
	return h.Sum64()
}

// TestDepartureWithReadsInFlight: a job may leave while prefetch reads
// for its region are still queued at the array. The kernels never do
// that by themselves (every page a hint names is touched later in the
// stream, and a touch waits for the read), so during the scan job's last
// block the test hints, before every scheduling step, pages the job has
// released and will not touch again; under the qos scheduler those reads
// queue behind the final write-back and outlive the job. Departure must
// neither panic nor wait for them: makespan, every report and the merged
// registry are pinned to the values this test recorded when departure
// still kept the job's backing store (the chaos row re-recorded when a
// brownout began to hold the device's next attempt until the window's
// end, which moves its timing only: every job's output fingerprint is the
// clean run's; both rows re-recorded when the registry began reading the
// array's devices, whose disk.<id>.* it had shown as zeros, and nothing
// else). A job queued behind the scan is admitted when it leaves,
// and from then on the array makes no page-buffer slab: first write-backs
// take the departed job's pages.
func TestDepartureWithReadsInFlight(t *testing.T) {
	chaos, err := fault.ParseSpec("profile=chaos,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	var clean []uint64 // the clean run's output fingerprints, by job
	for _, tc := range []struct {
		name     string
		faults   *fault.Profile
		makespan sim.Time
		digest   uint64
	}{
		{"clean", nil, 1428479400, 0xa1cda148e6aa3ef},
		{"chaos", &chaos, 2531598086, 0xe0d3813c7840fada},
	} {
		t.Run(tc.name, func(t *testing.T) {
			machine := testMachine(160)
			drainRecyclers(machine)
			s, err := NewServer(Config{Machine: machine, Seed: 17, Sched: "qos", Faults: tc.faults})
			if err != nil {
				t.Fatal(err)
			}
			zipf := mustSubmit(t, s, JobSpec{Name: "zipf", Kernel: KernelSpec{Kind: "zipf", Pages: 120, Accesses: 900},
				Class: 2, QuotaFrames: 40, MinFrames: 60, HintBudget: 16, Seed: 3})
			scan := mustSubmit(t, s, JobSpec{Name: "scan", Kernel: KernelSpec{Kind: "scan", Pages: 256},
				QuotaFrames: 40, MinFrames: 60, Seed: 4})
			late := mustSubmit(t, s, JobSpec{Name: "late", Kernel: KernelSpec{Kind: "stride", Pages: 96, Passes: 2},
				Class: 1, QuotaFrames: 40, MinFrames: 60, Seed: 5})
			if zipf.Queued() || scan.Queued() || !late.Queued() {
				t.Fatal("want zipf and scan admitted and late queued behind them")
			}

			const extra = 16 // pages hinted again on the way out
			for !scan.Done() {
				if scan.idx >= scan.kern.total-scanBlock {
					scan.vm.Prefetch(0, extra)
				}
				if !s.Step() {
					t.Fatal("server ran dry before the scan job finished")
				}
			}
			inFlight := 0
			for p := int64(0); p < extra; p++ {
				if scan.vm.InTransit(p) {
					inFlight++
				}
			}
			if inFlight == 0 {
				t.Fatal("no read was in flight when the scan job departed: the test lost its subject")
			}
			if late.Queued() {
				t.Fatal("the queued job was not admitted at the departure")
			}

			before := totalAlloc()
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			grown := totalAlloc() - before
			if slabBytes := uint64(64 * machine.PageSize); grown >= slabBytes {
				t.Errorf("%d B allocated after the departure, a page-buffer slab (%d B) or more: "+
					"first write-backs did not run on the departed job's pages", grown, slabBytes)
			}
			if err := s.Pool().CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			makespan, sum := s.Clock().Now(), digest(t, s)
			t.Logf("%d reads in flight at departure; makespan %d, digest %#x, %d B allocated after departure",
				inFlight, makespan, sum, grown)
			if makespan != tc.makespan {
				t.Errorf("makespan %d, want the recorded %d", makespan, tc.makespan)
			}
			if sum != tc.digest {
				t.Errorf("reports and registry digest %#x, want the recorded %#x", sum, tc.digest)
			}
			var fps []uint64
			for _, r := range s.Reports() {
				fps = append(fps, r.Fingerprint)
			}
			if tc.faults == nil {
				clean = fps
			} else if !slices.Equal(fps, clean) {
				t.Errorf("output fingerprints %#x, clean run %#x", fps, clean)
			}
		})
	}
}

// TestUseAfterDeparture: what Tenant.VM's comment promises. A departed
// job's accounting stays readable for good; its contents are gone, and
// asking for them panics by name — at departure, and after Run's end too,
// when a VM whose frames were recycled reads its discarded backing store —
// instead of answering with zeros or with the next server's data
// (vm.TestPoolRecycleDropsStorage covers a space whose store was kept).
func TestUseAfterDeparture(t *testing.T) {
	s, err := NewServer(Config{Machine: testMachine(64), Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	a := mustSubmit(t, s, JobSpec{Name: "a", Kernel: KernelSpec{Kind: "scan", Pages: 128}})
	mustSubmit(t, s, JobSpec{Name: "b", Kernel: KernelSpec{Kind: "stride", Pages: 128, Passes: 3}, Seed: 1})
	for !a.Done() {
		s.Step()
	}
	panicOf := func(f func()) (msg string) {
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		f()
		return ""
	}
	if msg := panicOf(func() { a.VM().Fingerprint() }); !strings.Contains(msg, `file "0-a" used after Discard`) {
		t.Errorf("Fingerprint of a departed job: panic %q, want one naming the discarded file", msg)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// The pool gave its slab away, so every page of the region reads the
	// discarded backing store.
	for p := int64(0); p < 128; p++ {
		msg := panicOf(func() { a.VM().Peek(p * s.p.PageSize) })
		if !strings.Contains(msg, `file "0-a" used after Discard`) {
			t.Errorf("Peek of page %d on a finished server: panic %q, want use-after-Discard", p, msg)
		}
	}
	r := a.Report()
	if r.Fingerprint == 0 || r.Mem != a.VM().Stats() || a.VM().Times().User == 0 || a.VM().ResidentFrames() != 0 {
		t.Errorf("a departed job's accounting is not readable: %+v", r)
	}
}

// steadyMix is a scaled-down benchmark mix: twelve tenants in the three
// kernel shapes and classes, a pool a third of their aggregate data.
func steadyMix() (hw.Params, []JobSpec) {
	const tenants, pages = 12, 512
	var jobs []JobSpec
	for i := 0; i < tenants; i++ {
		k := KernelSpec{Kind: "scan", Pages: pages, Passes: 2}
		switch i % 3 {
		case 1:
			k = KernelSpec{Kind: "zipf", Pages: pages, Accesses: 3 * pages}
		case 2:
			k = KernelSpec{Kind: "stride", Pages: pages, Passes: 2}
		}
		jobs = append(jobs, JobSpec{Name: fmt.Sprintf("t%d", i), Kernel: k, Class: Class(i % 3),
			QuotaFrames: pages / 3, Seed: uint64(i)})
	}
	return testMachine(tenants * pages / 3), jobs
}

// TestServerSteadyStateAlloc pins the page life cycle where CI sees it:
// a second identical server runs on the first one's frame slab and page
// buffers and allocates next to nothing, and retired servers hold on to
// no page-sized memory — pooled request objects still point at their
// retired file system (stripefs's put* do not clear .fs, ROADMAP carried
// item (a)), which after Discard and Recycle weighs kilobytes.
func TestServerSteadyStateAlloc(t *testing.T) {
	machine, jobs := steadyMix()
	run := func() uint64 {
		before := totalAlloc()
		_, reports := runServer(t, Config{Machine: machine, Seed: 9, Sched: "qos"}, jobs)
		if len(reports) != len(jobs) {
			t.Fatalf("%d reports for %d jobs", len(reports), len(jobs))
		}
		return totalAlloc() - before
	}
	heap := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	drainRecyclers(machine)
	floor := heap()
	first := run()
	second := run()
	t.Logf("first server allocated %d B, second %d B (%.1f %%)", first, second, 100*float64(second)/float64(first))
	if second*20 > first {
		t.Errorf("the second server allocated %d B, over 5 %% of the first's %d B", second, first)
	}
	for i := 0; i < 4; i++ {
		run()
	}
	// One server's pages: its frames plus every job's data region.
	pageBytes := machine.MemoryBytes
	for _, j := range jobs {
		pageBytes += j.Kernel.Pages * machine.PageSize
	}
	retained := heap() - floor
	t.Logf("six retired servers retain %d B; one server's pages are %d B", retained, pageBytes)
	if retained > 2*pageBytes {
		t.Errorf("six retired servers retain %d B, over twice one server's pages (%d B)", retained, pageBytes)
	}
}

// TestTenantAllocBudget: a job's admission and departure cost a fixed
// few dozen allocations — its file, address space and run-time layer,
// its live metrics source, the freeze of that source and one merge of
// its vm.* and rt.* sources — not a counter and a formatted name per
// metric. Jobs run one after another on one long-lived server, where
// their steps allocate nothing, and the count is held to its measured
// value plus a tenth; when every name was a counter of its own, a job
// cost 118.
func TestTenantAllocBudget(t *testing.T) {
	s, err := NewServer(Config{Machine: testMachine(96), Seed: 5, Sched: "qos"})
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{Name: "job", Kernel: KernelSpec{Kind: "scan", Pages: 64}, Seed: 8}
	got := testing.AllocsPerRun(20, func() {
		tn := mustSubmit(t, s, spec)
		for !tn.Done() {
			s.Step()
		}
	})
	const measured = 28
	t.Logf("a job's admission and departure allocate %.1f objects", got)
	if got > measured*1.1 {
		t.Errorf("a job's admission and departure allocate %.1f objects, budget %.1f", got, measured*1.1)
	}
}
