package main

import (
	"fmt"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/exec"
	"repro/internal/fault/harness"
	"repro/internal/hw"
	"repro/internal/ir"
	"repro/internal/locality"
	"repro/internal/nas"
	"repro/internal/obs"
	"repro/internal/rt"
	"repro/internal/sim"
	"repro/internal/stripefs"
	"repro/internal/vm"
)

// nasScaleJitter is how far a seed moves an app's problem scale: it is
// drawn from [1-jitter, 1] × the size's scale, at the app's standard
// data:memory ratio. No two seeds run the same inputs, yet the aggregates
// of two seeds stay comparable within the metrics' bounds. A larger
// jitter, or any on the ratio, swings the simulated aggregates by tens of
// percent (FFT's stall time, BUK's hint overhead). FFT, MGRID and the
// APP* solvers quantize their scale, so a seed moves BUK, CGM and EMBAR.
const nasScaleJitter = 0.02

// nasCell is one simulated run of a pass: an app on a tier, original
// (O) or with compiler-inserted prefetching (P).
type nasCell struct {
	app      *nas.App
	scale    float64
	tier     hw.Tier
	prefetch bool
	machine  hw.Params
	data     int64
}

func (c nasCell) name() string {
	v := "O"
	if c.prefetch {
		v = "P"
	}
	return fmt.Sprintf("%s/%s/%s", c.app.Name, c.tier, v)
}

// runOut is what the benchmark reads off one finished run, whichever
// way it was driven.
type runOut struct {
	elapsed sim.Time
	times   vm.TimeStats
	mem     vm.Stats
	rt      rt.Stats
	disks   []disk.Stats
	util    float64
	events  int64
	requeue int64  // stripefs reads and writes requeued after a device failure
	fp      uint64 // harness.Fingerprint of the complete output
	hostNS  int64

	// Generated-code size, read from the compiled program.
	planEntries  int
	hintSites    int
	printedBytes int
	reports      []exec.LoopReport
	callSites    int // traced runs only: core.Result does not carry the artifact
}

type nasWorkload struct {
	tiers []hw.Tier
	cells []nasCell
}

func (w *nasWorkload) setup(seed uint64, sz sizing) error {
	rng := splitmix(seed)
	ps := hw.Default().PageSize
	w.cells = nil
	for _, app := range nas.Apps() {
		scale := sz.nasScale * rng.between(1-nasScaleJitter, 1)
		prog := app.Build(scale)
		if err := prog.Resolve(ps); err != nil {
			return fmt.Errorf("%s: %w", app.Name, err)
		}
		data := nas.DataBytes(prog, ps)
		for _, tier := range w.tiers {
			m := core.MachineForTier(tier, data, app.Ratio())
			for _, pf := range []bool{false, true} {
				w.cells = append(w.cells, nasCell{app: app, scale: scale, tier: tier, prefetch: pf, machine: m, data: data})
			}
		}
	}
	return nil
}

func (w *nasWorkload) pass(tr *tracer) passResult {
	var m meter
	res := passResult{attempted: len(w.cells)}
	outs := make([]*runOut, len(w.cells))
	for i, c := range w.cells {
		var out *runOut
		err := guard(func() (err error) {
			if tr == nil {
				out, err = runCell(&m, c)
			} else {
				out, err = runCellTraced(tr, &m, c)
			}
			return err
		})
		if err != nil {
			res.failures = append(res.failures, fmt.Sprintf("%s: %v", c.name(), err))
			continue
		}
		outs[i] = out
	}
	// The non-binding-hint contract: every run of one app, whatever the
	// variant and tier, leaves the same complete output.
	first := map[string]uint64{}
	for i, c := range w.cells {
		if outs[i] == nil {
			continue
		}
		want, seen := first[c.app.Name]
		if !seen {
			first[c.app.Name] = outs[i].fp
		} else if outs[i].fp != want {
			res.failures = append(res.failures, fmt.Sprintf("%s: output fingerprint %#x differs from %#x of the app's first run", c.name(), outs[i].fp, want))
		}
	}
	res.spanNS, res.mallocs, res.allocBytes = m.spans, m.mallocs, m.bytes
	res.sim, res.rows = w.aggregate(outs, tr != nil)
	return res
}

// runCell is the measured path: one core.Run, timed from the outside,
// validated after the clock stops.
func runCell(m *meter, c nasCell) (*runOut, error) {
	cfg := core.DefaultConfig(c.machine)
	cfg.Prefetch = c.prefetch
	cfg.Seed = c.app.Seed
	var prog *ir.Program
	var r *core.Result
	var err error
	m.time(func() {
		prog = c.app.Build(c.scale)
		r, err = core.Run(prog, cfg)
	})
	if err != nil {
		return nil, err
	}
	if err := c.app.Check(prog, r.VM, r.Env); err != nil {
		return nil, err
	}
	out := &runOut{
		elapsed: r.Elapsed, times: r.Times, mem: r.Mem, rt: r.RT, disks: r.DiskStats, util: r.DiskUtil,
		events: r.Metrics.Counter("sim.events_dispatched").Value(), requeue: requeued(r.Metrics),
		fp: harness.Fingerprint(r), hostNS: m.spans[len(m.spans)-1],
		planEntries: len(r.Plan), reports: r.FastPath,
	}
	out.hintSites, out.printedBytes = hintSites(r.Prog), len(ir.Print(r.Prog))
	return out, nil
}

// runCellTraced drives the same sequence core.RunContext runs, call by
// call, with a span around each call into a layer. It cannot reach the
// process-wide plan cache, so it compiles every time: its compile spans
// price what the cache saves the measured path.
func runCellTraced(tr *tracer, m *meter, c nasCell) (*runOut, error) {
	id := tr.newRun(c.name())
	ps := c.machine.PageSize
	out := &runOut{}
	reg := obs.NewRegistry()
	var err error
	var prog, execProg *ir.Program
	var v *vm.VM
	var env *exec.Env
	m.time(func() {
		tr.do("nas.build", id, func() { prog = c.app.Build(c.scale) })
		tr.do("ir.resolve", id, func() { err = prog.Resolve(ps) })
		if err != nil {
			return
		}
		tr.do("ir.fingerprint", id, func() { prog.Fingerprint() })
		tr.do("ir.clone", id, func() { execProg = prog.Clone() })
		if c.prefetch {
			opts := compiler.DefaultOptions()
			tr.do("locality.analyze", id, func() { locality.Analyze(execProg, ps, opts.DefaultEstTrip) })
			var cres *compiler.Result
			tr.do("compiler.compile", id, func() { cres, err = compiler.Compile(execProg, c.machine, opts) })
			if err != nil {
				return
			}
			execProg, out.planEntries = cres.Prog, len(cres.Plan)
		}
		var art *exec.Artifact
		tr.do("exec.compile", id, func() { art, err = exec.Compile(execProg, ps, exec.Options{}) })
		if err != nil {
			return
		}
		out.reports, out.callSites = art.Reports(), art.CallSites()

		var clock *sim.Clock
		var fs *stripefs.FS
		var file *stripefs.File
		var mach *exec.Machine
		var layer *rt.Layer
		tr.do("core.setup", id, func() {
			clock = sim.NewClock()
			o := &obs.RunObs{Reg: reg}
			fs = stripefs.NewObserved(clock, c.machine, nil, o)
			file, err = fs.Create(prog.Name, max(1, prog.TotalBytes(ps)/ps))
			if err != nil {
				return
			}
			v = vm.NewObserved(clock, c.machine, file, o)
			layer = rt.RegisterObserved(v, true, reg)
			mach, err = art.Bind(v, layer)
		})
		if err != nil {
			return
		}
		tr.do("nas.seed", id, func() { c.app.Seed(prog, file, ps) })
		tr.do("exec.run", id, func() {
			start := clock.Now()
			env = mach.Run()
			v.Finish()
			out.elapsed = clock.Now() - start
		})
		fs.Recycle()
		out.times, out.mem, out.rt, out.events = v.Times(), v.Stats(), layer.Stats(), clock.EventsDispatched()
		for _, d := range fs.Backends() {
			out.disks = append(out.disks, d.Stats())
			out.util += d.Utilization(out.elapsed)
		}
		out.util /= float64(len(fs.Backends()))
	})
	if err != nil {
		return nil, err
	}
	out.hostNS, out.requeue = m.spans[len(m.spans)-1], requeued(reg)
	tr.do("nas.check", id, func() {
		if err = c.app.Check(prog, v, env); err != nil {
			return
		}
		out.fp = harness.Fingerprint(&core.Result{Prog: execProg, VM: v, Env: env})
		out.hintSites, out.printedBytes = hintSites(execProg), len(ir.Print(execProg))
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// hintSites counts the hint statements in the program that executes:
// with the printed size, the measure of how much code the compiler
// generated.
func hintSites(p *ir.Program) (n int) {
	ir.WalkStmts(p.Body, func(s ir.Stmt) {
		switch s.(type) {
		case ir.Prefetch, ir.Release, ir.PrefetchRelease:
			n++
		}
	})
	return n
}

// aggregate folds one pass's runs into the deterministic counts and the
// per-app rows. A failed run (nil) leaves its app out of the ratios. Only
// a traced pass knows the artifacts' call sites.
func (w *nasWorkload) aggregate(outs []*runOut, traced bool) (counts, table) {
	var t simTotals
	code := counts{}
	rows := table{
		Title: "per app and tier (simulated clock unless marked host)",
		Header: []string{"app", "tier", "data_MB", "O_s", "P_s", "speedup(O/P)", "O_idle_s", "P_idle_s",
			"stall_elim", "coverage", "host_O_ms", "host_P_ms"},
	}
	// Cells come in (O, P) pairs per app and tier.
	for i := 0; i+1 < len(outs); i += 2 {
		c, o, p := w.cells[i], outs[i], outs[i+1]
		for _, r := range []*runOut{o, p} {
			if r == nil {
				continue
			}
			t.addRun(r.elapsed, r.times, r.mem, r == p)
			t.addRT(r.rt)
			t.addDisks(r.disks)
			t.utilSum += r.util
			t.utilRuns++
			t.events += r.events
			t.requeued += r.requeue
			code["compiler.plan_entries"] += float64(r.planEntries)
			code["compiler.hint_sites"] += float64(r.hintSites)
			code["compiler.printed_bytes"] += float64(r.printedBytes)
			code["disk.requests."+c.tier.String()] += float64(requests(r.disks))
			if traced {
				code["exec.call_sites"] += float64(r.callSites)
			}
			for _, rep := range r.reports {
				code["exec.loops_"+driverKey(rep.Driver)]++
			}
		}
		if o == nil || p == nil {
			continue
		}
		t.addPair(o.elapsed, o.times, p.elapsed, p.times)
		os, ps := o.elapsed.Seconds(), p.elapsed.Seconds()
		rows.Rows = append(rows.Rows, []string{
			c.app.Name, c.tier.String(), fmt.Sprintf("%.1f", float64(c.data)/1e6),
			fmt.Sprintf("%.3f", os), fmt.Sprintf("%.3f", ps), fmt.Sprintf("%.3f", os/ps),
			fmt.Sprintf("%.3f", o.times.Idle.Seconds()), fmt.Sprintf("%.3f", p.times.Idle.Seconds()),
			fmt.Sprintf("%.3f", 1-ratio(p.times.Idle.Seconds(), o.times.Idle.Seconds())),
			fmt.Sprintf("%.3f", p.mem.CoverageFactor()),
			fmt.Sprintf("%.1f", float64(o.hostNS)/1e6), fmt.Sprintf("%.1f", float64(p.hostNS)/1e6),
		})
	}
	out := t.counts()
	for k, v := range code {
		out[k] = v
	}
	return out, rows
}

// requeued reads the striped file system's requeue counters off a run's
// or a server's registry.
func requeued(reg *obs.Registry) int64 {
	return reg.Counter("stripefs.requeued_reads").Value() + reg.Counter("stripefs.requeued_writes").Value()
}

func requests(ds []disk.Stats) (n int64) {
	for _, d := range ds {
		n += d.RequestsTotal()
	}
	return n
}

// driverKey maps exec.LoopReport.Driver to the metric suffix.
func driverKey(driver string) string {
	switch driver {
	case "kernel":
		return "bytecode"
	case "page-run":
		return "span"
	}
	return "oracle"
}
