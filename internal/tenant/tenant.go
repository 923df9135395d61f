// Package tenant turns the single-run simulator into a long-lived
// multi-job out-of-core service: N concurrent tenant kernels share one
// frame pool (vm.Pool) and one disk array (stripefs over disk.Device),
// under per-tenant residency quotas with fair-share reclaim,
// prefetch-priority classes (gold / silver / best-effort), and admission
// control that rejects or queues jobs whose minimum working set the pool
// cannot cover.
//
// Scheduling is a deterministic seeded round-robin over runnable
// tenants on the shared sim.Clock: each quantum runs one tenant for a
// bounded slice of accesses, parking it (without blocking the shared
// CPU) when it faults on an in-flight page. The same job mix and seed
// therefore produce byte-identical runs, and — because every write a
// tenant makes is chained only from its own previous values — a
// tenant's final memory image is identical solo or contended. Both
// properties are gated in CI.
package tenant

import (
	"fmt"
	"strconv"

	"repro/internal/disk"
	"repro/internal/fault"
	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/rt"
	"repro/internal/sim"
	"repro/internal/stripefs"
	"repro/internal/vm"
)

// Class re-exports disk.Class so callers configuring jobs need not
// import the disk package.
type Class = disk.Class

// Config describes the shared machine the server multiplexes.
type Config struct {
	// Machine is the simulated platform every tenant shares; the zero
	// value means hw.Default().
	Machine hw.Params

	// Seed drives the scheduler's rotor and, combined with each job's
	// own seed, the kernels' access streams.
	Seed uint64

	// Sched selects the shared array's request scheduler by its
	// disk.SchedulerFor name: "" or "fcfs", "elevator", or "qos"
	// (class-aware: demand faults first, then writes, then prefetches
	// by tenant class). Only a disk-tier Machine honors it; NVMe and
	// far-memory devices always service FCFS.
	Sched string

	// Metrics, if non-nil, receives the server's metrics — per-tenant
	// tenant.<id>.{faults,residency,prefetch_dropped,stall_ticks} (live
	// while the job runs, as of its departure after), each departed
	// job's vm.* and rt.* under tenant.<id>., admission
	// admission.{admitted,queued,rejected}, and the disk array's
	// metrics. Nil gives the server a private registry.
	Metrics *obs.Registry

	// Trace, if non-nil, collects a Chrome-trace timeline: one process
	// per tenant (its VM core and fault tracks) plus one for the shared
	// array.
	Trace *obs.Trace

	// Faults, if non-nil and enabled, injects deterministic faults into
	// the shared array and every tenant's hint plane, exactly as in
	// core.Config.
	Faults *fault.Profile
}

// JobSpec describes one tenant job.
type JobSpec struct {
	// Name labels the job's file, trace process, and report.
	Name string

	// Kernel is the job's access pattern.
	Kernel KernelSpec

	// Class is the job's prefetch-priority class (Gold zero value).
	Class disk.Class

	// QuotaFrames is the job's residency quota; 0 means unlimited.
	// Over-quota tenants are reclaimed first; under-quota tenants are
	// protected while any tenant is over.
	QuotaFrames int64

	// MinFrames is the minimum working set admission control must
	// reserve before the job may run. Jobs whose MinFrames exceeds the
	// pool's admissible capacity are rejected outright; jobs that do
	// not currently fit wait in FIFO order. 0 means min(16, Pages).
	MinFrames int64

	// HintBudget, if positive, caps the prefetch pages the job's
	// run-time layer may issue per scheduling quantum (the budget is
	// reset, not accumulated, at each slice). 0 means unlimited.
	HintBudget int64

	// Seed perturbs the job's access stream; combined with the server
	// seed so two jobs with the same spec still write distinct values.
	Seed uint64
}

type tenantState uint8

const (
	stateQueued tenantState = iota
	stateRunnable
	stateBlocked
	stateFinished
)

// Tenant is one admitted job's live state.
type Tenant struct {
	ID   int
	Spec JobSpec

	srv   *Server
	file  *stripefs.File
	vm    *vm.VM
	layer *rt.Layer
	kern  kernel
	reg   *obs.Registry // private: the tenant's vm.* / rt.* sources

	state      tenantState
	idx        int64 // next access index in the kernel stream
	waitPage   int64 // page the current access is parked on, -1 if none
	blockStart sim.Time
	stall      sim.Time

	admitted    sim.Time
	finished    sim.Time
	fingerprint uint64

	// metrics is the tenant's live source in the shared registry
	// (tenant.<id>.*), frozen at departure.
	metrics obs.Source
}

// Report is one job's final accounting.
type Report struct {
	ID          int
	Name        string
	Class       disk.Class
	Fingerprint uint64
	Admitted    sim.Time
	Finished    sim.Time
	Stall       sim.Time
	Mem         vm.Stats
	RT          rt.Stats
}

// Server is the multi-tenant out-of-core service.
type Server struct {
	clock *sim.Clock
	p     hw.Params
	fs    *stripefs.FS
	pool  *vm.Pool
	reg   *obs.Registry
	trace *obs.Trace
	inj   *fault.Injector

	seed     uint64
	capacity int64 // admissible frames: pool size minus daemon headroom

	all      []*Tenant // submission order, including queued and finished
	running  []*Tenant // admitted, unfinished, in admission order
	waitQ    []*Tenant // FIFO admission queue
	reserved int64     // sum of running tenants' MinFrames
	rotor    int
	started  bool

	// Admission counts, served under "admission." in admissionMetrics'
	// order.
	nAdmitted, nQueued, nRejected int64
	metrics                       obs.Source

	// unblockFn is the bound WaitFor condition, allocated once so the
	// all-blocked path stays allocation-free in steady state.
	unblockFn func() bool
}

// NewServer builds a server over a fresh simulated machine.
func NewServer(cfg Config) (*Server, error) {
	machine := cfg.Machine
	if machine.PageSize == 0 {
		machine = hw.Default()
	}
	if err := machine.Validate(); err != nil {
		return nil, err
	}
	mkSched, err := disk.SchedulerFor(cfg.Sched)
	if err != nil {
		return nil, err
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	clock := sim.NewClock()
	o := &obs.RunObs{Reg: reg}
	if cfg.Trace != nil {
		o.Proc = cfg.Trace.NewProcess("array")
	}
	fs := stripefs.NewObserved(clock, machine, mkSched, o)
	s := &Server{
		clock:    clock,
		p:        machine,
		fs:       fs,
		pool:     vm.NewPool(clock, machine),
		reg:      reg,
		trace:    cfg.Trace,
		seed:     cfg.Seed,
		capacity: machine.Frames() - machine.LowWater(),
	}
	s.metrics = obs.Source{Prefix: "admission.", Counters: admissionMetrics,
		Fill: func(c []int64, _ []float64) { copy(c, []int64{s.nAdmitted, s.nQueued, s.nRejected}) }}
	reg.Register(&s.metrics)
	if cfg.Faults != nil && cfg.Faults.Enabled() {
		if err := cfg.Faults.Validate(); err != nil {
			return nil, err
		}
		s.inj = fault.NewInjector(*cfg.Faults, reg, o.Thread("fault-injector"))
		fs.SetFaults(s.inj)
	}
	s.unblockFn = func() bool {
		for _, t := range s.running {
			if t.state == stateBlocked && !t.vm.InTransit(t.waitPage) {
				return true
			}
		}
		return false
	}
	clock.DeadlockInfo = s.deadlockInfo
	return s, nil
}

// Clock returns the shared simulated clock.
func (s *Server) Clock() *sim.Clock { return s.clock }

// Pool returns the shared frame pool.
func (s *Server) Pool() *vm.Pool { return s.pool }

// Metrics returns the shared registry.
func (s *Server) Metrics() *obs.Registry { return s.reg }

// Capacity returns the admissible frame capacity (pool size minus the
// pageout daemon's low-water headroom).
func (s *Server) Capacity() int64 { return s.capacity }

// Faults returns the injected-fault tallies (zero when the server was
// built without a fault profile).
func (s *Server) Faults() fault.Counts { return s.inj.Counts() }

func (s *Server) deadlockInfo() string {
	out := ""
	for i, d := range s.fs.Backends() {
		out += fmt.Sprintf("disk %d: busy=%v queue=%d\n", i, d.Busy(), d.QueueLen())
	}
	for _, t := range s.running {
		out += fmt.Sprintf("tenant %d (%s): state=%d idx=%d/%d waitPage=%d\n",
			t.ID, t.Spec.Name, t.state, t.idx, t.kern.total, t.waitPage)
	}
	return out
}

// Submit offers a job to the server. It returns an error if the job can
// never run (its minimum working set exceeds the admissible capacity, or
// the spec is invalid); otherwise the job is admitted immediately when
// its reservation fits, and queued FIFO when it does not. Submissions
// are part of the deterministic input: same order, same run.
func (s *Server) Submit(spec JobSpec) (*Tenant, error) {
	if err := spec.Kernel.validate(); err != nil {
		return nil, err
	}
	if spec.MinFrames == 0 {
		spec.MinFrames = min64(16, spec.Kernel.Pages)
	}
	if spec.MinFrames < 0 || spec.QuotaFrames < 0 || spec.HintBudget < 0 {
		return nil, fmt.Errorf("tenant: negative resource bound in job %q", spec.Name)
	}
	if spec.Class > disk.BestEffort {
		return nil, fmt.Errorf("tenant: unknown class %d in job %q", spec.Class, spec.Name)
	}
	if spec.MinFrames > s.capacity {
		s.nRejected++
		return nil, fmt.Errorf("tenant: job %q needs %d frames but only %d are admissible",
			spec.Name, spec.MinFrames, s.capacity)
	}
	if spec.Name == "" {
		spec.Name = fmt.Sprintf("job-%d", len(s.all))
	}
	t := &Tenant{ID: len(s.all), Spec: spec, srv: s, waitPage: -1}
	t.kern = newKernel(spec.Kernel, s.seed^splitmix(spec.Seed+uint64(t.ID)), s.p.PageSize)
	t.metrics = obs.Source{Prefix: "tenant." + strconv.Itoa(t.ID) + ".", Counters: liveMetrics, Fill: t.readMetrics}
	s.reg.Register(&t.metrics)
	s.all = append(s.all, t)
	if s.reserved+spec.MinFrames <= s.capacity && len(s.waitQ) == 0 {
		s.admit(t)
	} else {
		t.state = stateQueued
		s.waitQ = append(s.waitQ, t)
		s.nQueued++
	}
	return t, nil
}

// admit attaches the job to the shared pool and array and makes it
// runnable.
func (s *Server) admit(t *Tenant) {
	spec := &t.Spec
	var err error
	t.file, err = s.fs.Create(strconv.Itoa(t.ID)+"-"+spec.Name, spec.Kernel.Pages)
	if err != nil {
		// Names are made unique above, and sizes were validated; a
		// create failure is a programming error, not load.
		panic(err)
	}
	t.reg = obs.NewRegistry()
	o := &obs.RunObs{Reg: t.reg}
	if s.trace != nil {
		o.Proc = s.trace.NewProcess(fmt.Sprintf("tenant-%d-%s", t.ID, spec.Name))
	}
	t.vm = s.pool.Attach(t.file, o)
	if spec.QuotaFrames > 0 {
		t.vm.SetQuota(spec.QuotaFrames)
	}
	t.vm.SetClass(spec.Class)
	if s.inj != nil {
		t.vm.SetFaults(s.inj)
	}
	t.layer = rt.RegisterObserved(t.vm, true, t.reg)
	if _, err := t.vm.Alloc("data", spec.Kernel.Pages*s.p.PageSize); err != nil {
		panic(err)
	}
	t.state = stateRunnable
	t.admitted = s.clock.Now()
	s.reserved += spec.MinFrames
	s.running = append(s.running, t)
	s.nAdmitted++
}

// admitQueued admits queued jobs, in strict FIFO order, while the head
// of the queue fits.
func (s *Server) admitQueued() {
	for len(s.waitQ) > 0 && s.reserved+s.waitQ[0].Spec.MinFrames <= s.capacity {
		t := s.waitQ[0]
		copy(s.waitQ, s.waitQ[1:])
		s.waitQ = s.waitQ[:len(s.waitQ)-1]
		s.admit(t)
	}
}

// pickNext returns the next runnable tenant under the seeded round-robin
// rotor, unparking blocked tenants whose awaited page has arrived. It
// returns nil when every running tenant is blocked (or none remain).
func (s *Server) pickNext() *Tenant {
	n := len(s.running)
	if n == 0 {
		return nil
	}
	if !s.started {
		s.started = true
		s.rotor = int(s.seed % uint64(n))
	}
	if s.rotor >= n {
		s.rotor = 0
	}
	for i := 0; i < n; i++ {
		t := s.running[(s.rotor+i)%n]
		if t.state == stateBlocked {
			if t.vm.InTransit(t.waitPage) {
				continue
			}
			t.unpark()
		}
		if t.state == stateRunnable {
			s.rotor = (s.rotor + i + 1) % n
			return t
		}
	}
	return nil
}

func (t *Tenant) unpark() {
	t.stall += t.srv.clock.Now() - t.blockStart
	t.state = stateRunnable
}

// Step runs one scheduling decision: one tenant's slice, or — when all
// running tenants are parked on I/O — an idle wait until any of them can
// continue. It reports whether work remains.
func (s *Server) Step() bool {
	if len(s.running) == 0 {
		return false
	}
	t := s.pickNext()
	if t == nil {
		s.clock.WaitFor(s.unblockFn)
		return true
	}
	s.runSlice(t)
	return true
}

// Run drives the server until every submitted job has finished, then
// drains the event queue (trailing write-backs and daemon activity) and
// retires the server: its page memory goes to the next one. Reports,
// metrics and pool invariants stay readable; Submit no more jobs.
func (s *Server) Run() error {
	for s.Step() {
	}
	if len(s.waitQ) > 0 {
		// Unreachable by construction — the queue head always fits once
		// reserved returns to zero — but a stuck queue must be loud.
		return fmt.Errorf("tenant: %d jobs still queued with no tenants running", len(s.waitQ))
	}
	s.clock.Drain()
	// The departed jobs' backing stores are already on the FS's free list.
	s.fs.Recycle()
	s.pool.Recycle()
	return nil
}

// sliceOps is the scheduling quantum in kernel accesses.
const sliceOps = 64

// runSlice runs one tenant for up to sliceOps kernel accesses.
func (s *Server) runSlice(t *Tenant) {
	if t.Spec.HintBudget > 0 {
		// Reset, not top up: an idle quantum does not bank hint credit.
		t.layer.SetBudget(t.Spec.HintBudget)
	}
	for i := 0; i < sliceOps; i++ {
		if t.idx >= t.kern.total {
			s.finish(t)
			return
		}
		if !t.step() {
			t.state = stateBlocked
			t.blockStart = s.clock.Now()
			break
		}
	}
	// The tenant's pending compute lands on the shared clock before the
	// next tenant runs, so cross-tenant event order is well defined.
	t.vm.FlushUser()
}

// step performs the tenant's next access: its hint (once per access, not
// again when retrying the access it parked on), the touch, and — if the
// page is immediately usable — the read-modify-write itself. false parks
// the tenant on t.waitPage.
func (t *Tenant) step() bool {
	idx := t.idx
	if t.waitPage < 0 {
		if pfPage, pfN, relPage, relN := t.kern.hints(idx); pfN > 0 || relN > 0 {
			if pfN == 1 && relN == 0 {
				t.layer.Prefetch1(pfPage)
			} else {
				t.layer.PrefetchRelease(pfPage, pfN, relPage, relN)
			}
		}
	}
	page := t.kern.pageAt(idx)
	if !t.vm.TouchAsync(page) {
		t.waitPage = page
		return false
	}
	t.waitPage = -1
	addr := page*t.srv.p.PageSize + t.kern.wordAt(idx)*8
	old, _ := t.vm.LoadFast(addr)
	if !t.kern.spec.ReadOnly {
		t.vm.StoreFast(addr, mixValue(old, t.kern.seed, idx))
	}
	t.vm.AddUserOps(opsPerAccess)
	t.idx++
	return true
}

// admissionMetrics is the server's admission table under "admission.".
var admissionMetrics = []string{"admitted", "queued", "rejected"}

// liveMetrics is a tenant's live metrics table under its "tenant.<id>."
// prefix, in readMetrics' order.
var liveMetrics = []string{"faults", "residency", "prefetch_dropped", "stall_ticks"}

// readMetrics is the tenant's live obs.Source (all zero while queued).
func (t *Tenant) readMetrics(c []int64, _ []float64) {
	c[3] = int64(t.stall)
	if t.vm == nil {
		return
	}
	st := t.vm.Stats()
	c[0], c[1], c[2] = st.MajorFaults, t.vm.ResidentFrames(), st.PrefetchDropped+t.layer.Stats().BudgetDropped
}

// finish completes a job: result fingerprint, final write-back, frame
// release, metrics merge, and reservation return (which may admit queued
// jobs). The hash comes first, while every dirty page is still resident
// (a page with a write-back in flight is too), so its words are the
// job's output; the Report carries it and nothing reads the region
// again. The backing store then goes back to the array's free list for
// the jobs still running and the ones admitted next, and the final
// write-backs, charged their simulated time as ever, carry no bytes.
func (s *Server) finish(t *Tenant) {
	t.fingerprint = t.vm.Fingerprint()
	t.file.Discard()
	t.vm.Finish()
	t.vm.Release(0, t.vm.AllocatedPages())
	t.vm.FlushUser()
	t.state = stateFinished
	t.finished = s.clock.Now()
	s.reg.Freeze(&t.metrics)
	s.reg.Merge(t.metrics.Prefix, t.reg)
	for i, r := range s.running {
		if r == t {
			copy(s.running[i:], s.running[i+1:])
			s.running = s.running[:len(s.running)-1]
			if s.rotor > i {
				s.rotor--
			}
			break
		}
	}
	s.reserved -= t.Spec.MinFrames
	s.admitQueued()
}

// State accessors for tests and the bench surface.

// Done reports whether the job has finished.
func (t *Tenant) Done() bool { return t.state == stateFinished }

// Queued reports whether the job is still waiting for admission.
func (t *Tenant) Queued() bool { return t.state == stateQueued }

// VM returns the tenant's address space (nil until admitted). Once the
// job is Done its Times, Stats and ResidentFrames stay valid for good;
// its contents do not: the backing store is discarded at departure and
// the frames are given away at Run's end, and from then on Peek,
// Fingerprint and the fast accessors panic rather than read memory that
// has moved on. The Report carries the hash.
func (t *Tenant) VM() *vm.VM { return t.vm }

// Report returns the job's accounting so far (final once Done).
func (t *Tenant) Report() Report {
	r := Report{
		ID:          t.ID,
		Name:        t.Spec.Name,
		Class:       t.Spec.Class,
		Fingerprint: t.fingerprint,
		Admitted:    t.admitted,
		Finished:    t.finished,
		Stall:       t.stall,
	}
	if t.vm != nil {
		r.Mem = t.vm.Stats()
		r.RT = t.layer.Stats()
	}
	return r
}

// Reports returns every submitted job's report in submission order.
func (s *Server) Reports() []Report {
	out := make([]Report, len(s.all))
	for i, t := range s.all {
		out[i] = t.Report()
	}
	return out
}
