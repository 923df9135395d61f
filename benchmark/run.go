package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
)

// metricValue is one emitted metric. Host metrics carry the order
// statistics of their per-pass samples; simulated metrics and counts are
// exact and carry none.
type metricValue struct {
	Value   float64  `json:"value"`
	Unit    string   `json:"unit"`
	Samples *summary `json:"samples,omitempty"`
}

// report is everything one run of one workload produced.
type report struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Traced    bool                   `json:"traced"`
	Smoke     bool                   `json:"smoke"`
	GoVersion string                 `json:"go"`
	NProc     int                    `json:"nproc"`
	Passes    int                    `json:"passes"` // timed passes, tracing off
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	Rows      table                  `json:"rows"`
	Stages    []stageRow             `json:"stages,omitempty"` // traced: run × stage host time
	TraceFile string                 `json:"trace_file,omitempty"`
}

// runOptions are the knobs of one run.
type runOptions struct {
	seed     uint64
	seconds  float64
	traced   bool
	size     sizing
	smoke    bool
	traceOut string // Chrome trace file of a traced run; "" writes none
}

// runWorkload measures one workload: set-ups (each ending in an untimed
// warm-up pass), timed passes with tracing off until the time budget is
// spent, and for a traced run one more pass with spans plus the isolated
// layer drives. It returns an error only when the workload cannot run at
// all; failed runs and checks are counted in the report.
func runWorkload(def *workloadDef, opt runOptions) (*report, error) {
	rep := &report{Workload: def.Name, Seed: opt.seed, Seconds: opt.seconds, Traced: opt.traced, Smoke: opt.smoke,
		GoVersion: runtime.Version(), NProc: runtime.NumCPU(), Metrics: map[string]metricValue{}}
	fail := func(format string, args ...any) {
		rep.Failures = append(rep.Failures, fmt.Sprintf(format, args...))
	}
	count := func(stage string, r passResult) {
		rep.Attempted += r.attempted
		for _, f := range r.failures {
			fail("%s: %s", stage, f)
		}
	}

	// Set-up, several times over: inputs from the seed, reference results,
	// and a warm-up pass that pays the cold compiles (the plan cache is
	// emptied first; the nas package's parse memo cannot be, so only the
	// first set-up of a process parses the NAS sources).
	var w workload
	var setups []float64
	var ref counts
	nSetups := opt.size.setups
	if opt.traced {
		nSetups = 1 // setup_s is not a metric of the traced run
	}
	for i := 0; i < nSetups; i++ {
		t0 := time.Now()
		core.ResetPlanCache()
		w = def.New()
		if err := w.setup(opt.seed, opt.size); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", def.Name, err)
		}
		warm := w.pass(nil)
		setups = append(setups, time.Since(t0).Seconds())
		count(fmt.Sprintf("warm-up %d", i), warm)
		ref = warm.sim
	}

	// Timed passes, tracing off. A traced run spends part of its budget
	// here to have something to compare the traced pass with.
	budget := time.Duration(opt.seconds * float64(time.Second))
	if opt.traced {
		budget /= 2
	}
	var host, allocs, allocMB []float64
	var spans [][]int64 // per timed span, its time in every pass
	var last passResult
	hits0, misses0, _ := core.PlanCacheStats()
	for start := time.Now(); len(host) < opt.size.minPasses || time.Since(start) < budget; {
		last = w.pass(nil)
		host = append(host, float64(sum(last.spanNS))/1e9)
		allocs = append(allocs, float64(last.mallocs))
		allocMB = append(allocMB, float64(last.allocBytes)/(1<<20))
		if spans == nil {
			spans = make([][]int64, len(last.spanNS))
		}
		if len(last.spanNS) == len(spans) { // a pass that lost a run is left out
			for i, d := range last.spanNS {
				spans[i] = append(spans[i], d)
			}
		}
		count(fmt.Sprintf("pass %d", len(host)), last)
		if k := differs(ref, last.sim); k != "" {
			fail("pass %d: %s is %v, was %v in the warm-up: simulated results must repeat exactly", len(host), k, last.sim[k], ref[k])
		}
	}
	hits1, misses1, _ := core.PlanCacheStats()
	rep.Passes = len(host)
	rep.Rows = last.rows
	hostSum, allocSum, allocMBSum := summarize(host), summarize(allocs), summarize(allocMB)

	if !opt.traced {
		setupSum := summarize(setups)
		rep.Metrics["setup_s"] = metricValue{setupSum.Median, "s", &setupSum}
		rep.Metrics["host_s_per_pass"] = metricValue{float64(noiseFloor(spans)) / 1e9, "s", &hostSum}
		rep.Metrics["host_allocs_per_pass"] = metricValue{allocSum.Median, "count", &allocSum}
		rep.Metrics["host_alloc_mb_per_pass"] = metricValue{allocMBSum.Median, "MB", &allocMBSum}
		for _, d := range endToEnd {
			if strings.HasPrefix(d.Name, "sim_") {
				rep.Metrics[d.Name] = metricValue{Value: ref[d.Name], Unit: d.Unit}
			}
		}
	} else {
		tr := newTracer()
		t0 := time.Now()
		traced := w.pass(tr)
		wall := time.Since(t0)
		rss, err := peakRSSMB() // before the drives build their fixtures
		if err != nil {
			return nil, err
		}
		count("traced pass", traced)
		if k := differs(ref, traced.sim); k != "" {
			fail("traced pass: %s is %v, was %v untraced: the traced drive must simulate the same run", k, traced.sim[k], ref[k])
		}
		cold, hit, err := planCacheCost()
		if err != nil {
			return nil, fmt.Errorf("plan cache cost: %w", err)
		}
		derived := counts{
			"core.plancache_hit_share": ratio(float64(hits1-hits0), float64(hits1-hits0+misses1-misses0)),
			"core.run_cold_us":         cold,
			"core.run_hit_us":          hit,
			"trace.peak_rss_mb":        rss,
			"trace.coverage_share":     ratio(float64(tr.topLevel()), float64(wall)),
			"trace.overhead_share":     ratio(float64(sum(traced.spanNS))/1e9-hostSum.Median, hostSum.Median),
		}
		values := layerValues(tr.total(), traced, drives(opt.size.driveOps), hostSum.Median, derived)
		for _, d := range perLayer {
			rep.Metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
		}
		rep.Stages = tr.stages()
		if opt.traceOut != "" {
			if err := tr.writeChrome(opt.traceOut); err != nil {
				return nil, fmt.Errorf("writing trace: %w", err)
			}
			rep.TraceFile = opt.traceOut
		}
	}
	for name, m := range rep.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fail("metric %s is %v", name, m.Value)
		}
	}
	rep.Failed = len(rep.Failures)
	rep.Correct = rep.Failed == 0
	return rep, nil
}

// noiseFloor is the time of one pass with the host's interference taken
// out: for every timed span its fastest tenth over the passes (the
// minimum while there are ten samples or fewer, the tenth percentile
// beyond, where the minimum of hundreds of samples would be a lucky
// draw), summed over the spans.
func noiseFloor(spans [][]int64) (ns int64) {
	for _, samples := range spans {
		sorted := append([]int64(nil), samples...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		ns += sorted[(len(sorted)-1)/10]
	}
	return ns
}

func sum(xs []int64) (n int64) {
	for _, x := range xs {
		n += x
	}
	return n
}

// differs returns the first key, in name order, whose value differs
// between two passes' deterministic numbers, or "". Keys only one side
// has (artifact counts exist only in the traced pass) are not compared.
func differs(a, b counts) string {
	var keys []string
	for k := range a {
		if _, both := b[k]; both {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		if a[k] != b[k] {
			return k
		}
	}
	return ""
}

// layerValues assembles every per-layer metric of the traced pass: span
// totals, the pass's counts, the drives, and the estimates derived from
// them.
func layerValues(spanUS map[string]float64, traced passResult, drive map[string]float64, hostMedianS float64, derived counts) counts {
	v := counts{}
	for k, x := range traced.sim {
		v[k] = x
	}
	for k, x := range drive {
		v[k] = x
	}
	for k, x := range derived {
		v[k] = x
	}
	for _, stage := range []string{"lang.parse", "ir.resolve", "ir.fingerprint", "ir.clone", "ir.print",
		"locality.analyze", "compiler.compile", "exec.compile", "core.setup", "nas.seed", "nas.check", "exec.run"} {
		v[stage+"_us"] = spanUS[stage]
	}
	for k, x := range traced.host {
		v[k] = x
	}
	v["exec.host_ns_per_sim_user_ns"] = ratio(v["exec.run_us"]*1e3, v["vm.sim_user_s"]*1e9)

	// Outside estimates: calls counted × host cost of one call on a bare
	// fixture. vm's includes the I/O stack under its faults and prefetch
	// calls; stripefs, disk and sim break that stack down further.
	v["rt.est_us"] = v["rt.filtered_pages"] * v["rt.ns_per_filtered_hint"] / 1e3
	v["vm.est_us"] = ((v["vm.faults_major"]+v["vm.faults_minor"])*v["vm.ns_per_demand_fault"] +
		v["vm.prefetch_calls"]*v["vm.ns_per_prefetch_call"]) / 1e3
	// The read-block drive makes four disk requests, so a quarter of it
	// is stripefs's cost per request it hands down.
	v["stripefs.est_us"] = v["disk.requests"] * v["stripefs.ns_per_read_block"] / 4 / 1e3
	for _, tier := range []string{"disk", "nvme", "farmem"} {
		v["disk.est_us"] += v["disk.requests."+tier] * v["disk.ns_per_submit."+tier] / 1e3
	}
	v["sim.est_us"] = v["sim.events_dispatched"] * v["sim.ns_per_event"] / 1e3
	v["sim.host_ns_per_event_e2e"] = ratio(hostMedianS*1e9, v["sim.events_dispatched"])
	if v["exec.run_us"] > 0 {
		v["exec.dispatch_est_us"] = v["exec.run_us"] - v["rt.est_us"] - v["vm.est_us"]
	}
	return v
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
