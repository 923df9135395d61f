package bench

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/fault"
	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/tenant"
)

// TenantOptions configures the multi-tenant service benchmark: N tenant
// kernels sharing one frame pool and one disk array under residency
// quotas, prefetch-priority classes, and admission control.
type TenantOptions struct {
	// Tenants is the number of jobs submitted (must be positive).
	Tenants int

	// Classes is the per-tenant class assignment, cycled when shorter
	// than Tenants; empty cycles gold, silver, best-effort.
	Classes []disk.Class

	// Scale multiplies every tenant's data-set size (1 = standard).
	Scale float64

	// Seed drives the deterministic scheduler and access streams: same
	// mix and seed, byte-identical output.
	Seed uint64

	// Sched selects the shared array's scheduler; empty takes the
	// Backend spec's scheduler if any, else "qos".
	Sched string

	// Backend, if non-nil, rebuilds the shared machine's storage
	// subsystem for the spec's tier (as in core.Config.Backend), so the
	// service can run on NVMe or far memory instead of the paper's
	// disks.
	Backend *core.BackendSpec

	// Faults, if non-nil and enabled, injects the profile into the
	// shared array (the brownout walkthrough in EXPERIMENTS.md).
	Faults *fault.Profile

	// Trace and Metrics collect the run's timeline and counters, as a
	// Runner's do.
	Trace   *obs.Trace
	Metrics *obs.Registry
}

// ParseClasses parses a comma-separated QoS class list ("gold,silver,be")
// into the per-tenant assignment TenantOptions.Classes expects.
func ParseClasses(spec string) ([]disk.Class, error) {
	var out []disk.Class
	for _, part := range strings.Split(spec, ",") {
		c, err := disk.ParseClass(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// tenantKernels is the kernel rotation the benchmark assigns: a
// streaming scan (release-behind hints), a skewed zipf mix, and a
// strided walk — the three access shapes the paper's suite spans.
func tenantKernels(i int, pages int64) tenant.KernelSpec {
	switch i % 3 {
	case 0:
		return tenant.KernelSpec{Kind: "scan", Pages: pages, Passes: 2}
	case 1:
		return tenant.KernelSpec{Kind: "zipf", Pages: pages, Accesses: 3 * pages}
	default:
		return tenant.KernelSpec{Kind: "stride", Pages: pages, Passes: 2}
	}
}

// Tenants runs the multi-tenant service benchmark and prints a
// per-tenant report: class, quota, completion and stall times, fault
// classification, and dropped prefetches, followed by pool-level
// admission and reclaim counters. The aggregate data set is sized at 3×
// the shared memory so tenants genuinely contend for frames.
func Tenants(w io.Writer, opts TenantOptions) error {
	if opts.Tenants <= 0 {
		return fmt.Errorf("bench: tenant count must be positive, got %d", opts.Tenants)
	}
	scale := opts.Scale
	if scale == 0 {
		scale = 1
	}
	classes := opts.Classes
	if len(classes) == 0 {
		classes = []disk.Class{disk.Gold, disk.Silver, disk.BestEffort}
	}
	sched := opts.Sched
	if sched == "" && opts.Backend != nil {
		sched = opts.Backend.Sched
	}
	if sched == "" {
		sched = "qos"
	}

	pages := int64(256 * scale)
	if pages < 16 {
		pages = 16
	}
	frames := int64(opts.Tenants) * pages / 3
	if frames < 64 {
		frames = 64
	}
	machine := hw.Default()
	machine.MemoryBytes = frames * machine.PageSize
	if opts.Backend != nil {
		m, err := opts.Backend.Apply(machine)
		if err != nil {
			return err
		}
		machine = m
	}

	srv, err := tenant.NewServer(tenant.Config{
		Machine: machine,
		Seed:    opts.Seed,
		Sched:   sched,
		Metrics: opts.Metrics,
		Trace:   opts.Trace,
		Faults:  opts.Faults,
	})
	if err != nil {
		return err
	}
	quota := srv.Capacity() / int64(opts.Tenants)
	for i := 0; i < opts.Tenants; i++ {
		class := classes[i%len(classes)]
		spec := tenant.JobSpec{
			Name:        fmt.Sprintf("t%d-%s", i, tenantKernels(i, pages).Kind),
			Kernel:      tenantKernels(i, pages),
			Class:       class,
			QuotaFrames: quota,
			Seed:        uint64(i),
		}
		if class == disk.BestEffort {
			// Best-effort jobs also get a per-quantum hint budget, so
			// the run exercises user-level hint throttling.
			spec.HintBudget = 16
		}
		if _, err := srv.Submit(spec); err != nil {
			return err
		}
	}
	if err := srv.Run(); err != nil {
		return err
	}

	fmt.Fprintf(w, "Multi-tenant service: %d tenants, %d shared frames (quota %d each), sched=%s, seed=%d\n",
		opts.Tenants, machine.Frames(), quota, sched, opts.Seed)
	fmt.Fprintln(w, "--------------------------------------------------------------------------------")
	fmt.Fprintf(w, "  %-12s %-11s %11s %11s %8s %8s %8s %8s\n",
		"tenant", "class", "finish", "stall", "faults", "hits", "dropped", "budget")
	for _, r := range srv.Reports() {
		fmt.Fprintf(w, "  %-12s %-11s %9.1fms %9.1fms %8d %8d %8d %8d\n",
			r.Name, r.Class, r.Finished.Millis(), r.Stall.Millis(),
			r.Mem.MajorFaults, r.Mem.PrefetchedHits, r.Mem.PrefetchDropped,
			r.RT.BudgetDropped)
	}
	m := srv.Metrics()
	fmt.Fprintf(w, "  admission: %d admitted, %d queued, %d rejected; final clock %v\n",
		m.Counter("admission.admitted").Value(),
		m.Counter("admission.queued").Value(),
		m.Counter("admission.rejected").Value(),
		srv.Clock().Now())
	if opts.Faults != nil {
		fmt.Fprintf(w, "  faults injected: %d read errors, %d slowdowns, %d brownout failures, %d dropped hints\n",
			m.Counter("fault.read_errors").Value(),
			m.Counter("fault.slowdowns").Value(),
			m.Counter("fault.brownout_failures").Value(),
			m.Counter("fault.prefetch_drops").Value())
	}
	return srv.Pool().CheckInvariants()
}
