package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/ir"
	"repro/internal/lang"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// Every workload runs at the smoke size, untraced and traced, passes its
// own output checks, and emits exactly the declared metrics: each once,
// finite, and (end to end) never 0.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, def := range workloads {
		for _, traced := range []bool{false, true} {
			def, traced := def, traced
			name := def.Name + "/untraced"
			if traced {
				name = def.Name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				opt := runOptions{seed: 7, seconds: 0, traced: traced, size: smokeSize, smoke: true}
				if traced {
					opt.traceOut = filepath.Join(t.TempDir(), "trace.json")
				}
				rep, err := runWorkload(&def, opt)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d: %v", rep.Correct, rep.Attempted, rep.Failed, rep.Failures)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(rep.Metrics) != len(want) {
					t.Errorf("emitted %d metrics, declared %d", len(rep.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := rep.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("%s not emitted", d.Name)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("%s = %v", d.Name, m.Value)
					case m.Unit != d.Unit:
						t.Errorf("%s has unit %q, declared %q", d.Name, m.Unit, d.Unit)
					case !traced && m.Value == 0:
						t.Errorf("end-to-end metric %s is 0 on %s", d.Name, def.Name)
					}
				}
				if traced {
					checkTrace(t, rep, def.Name)
				}
			})
		}
	}
}

// checkTrace checks what only a traced run has: a trace file in Chrome's
// format, a stage table, and the layer separation the workloads were
// chosen for.
func checkTrace(t *testing.T, rep *report, workload string) {
	t.Helper()
	data, err := os.ReadFile(rep.TraceFile)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace file is not trace-event JSON: %v", err)
	}
	spans := 0
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			spans++
			if e.Name == "" || e.Dur < 0 || e.TS < 0 {
				t.Fatalf("bad span %+v", e)
			}
		}
	}
	if spans == 0 || len(rep.Stages) == 0 {
		t.Fatalf("%d spans in the file, %d stage rows", spans, len(rep.Stages))
	}
	v := func(name string) float64 { return rep.Metrics[name].Value }
	switch workload {
	case "nas_disk", "nas_fasttier":
		if v("exec.run_us") <= 0 || v("core.plancache_hit_share") < 0.9 || v("lang.parse_us") != 0 {
			t.Errorf("exec.run_us=%v plancache_hit_share=%v lang.parse_us=%v", v("exec.run_us"), v("core.plancache_hit_share"), v("lang.parse_us"))
		}
		if v("core.sim_speedup_geomean") <= 0 || v("disk.requests") <= 0 || v("sim.events_dispatched") <= 0 {
			t.Errorf("speedup=%v disk.requests=%v events=%v", v("core.sim_speedup_geomean"), v("disk.requests"), v("sim.events_dispatched"))
		}
	case "compile_cold":
		if v("exec.run_us") != 0 || v("vm.faults_major") != 0 || v("sim.events_dispatched") != 0 {
			t.Errorf("compile_cold simulated: exec.run_us=%v faults=%v events=%v", v("exec.run_us"), v("vm.faults_major"), v("sim.events_dispatched"))
		}
		if v("lang.parse_us") <= 0 || v("compiler.compile_us") <= 0 || v("exec.compile_us") <= 0 || v("compiler.hint_sites") <= 0 {
			t.Errorf("compile spans missing: parse=%v compile=%v exec=%v hints=%v", v("lang.parse_us"), v("compiler.compile_us"), v("exec.compile_us"), v("compiler.hint_sites"))
		}
	case "tenant_mix":
		if v("exec.run_us") != 0 || v("compiler.compile_us") != 0 {
			t.Errorf("tenant_mix ran exec or the compiler: %v %v", v("exec.run_us"), v("compiler.compile_us"))
		}
		if v("tenant.admitted") != float64(smokeSize.tenants*smokeSize.mixes) || v("disk.requests") <= 0 || v("tenant.sim_gold_finish_s") <= 0 {
			t.Errorf("admitted=%v disk.requests=%v gold_finish=%v", v("tenant.admitted"), v("disk.requests"), v("tenant.sim_gold_finish_s"))
		}
	}
}

// The same seed gives the same inputs and so the same simulated clock;
// another seed gives other inputs.
func TestSeedDeterminesSimulatedMetrics(t *testing.T) {
	def := workloadByName("tenant_mix")
	run := func(seed uint64) counts {
		w := def.New()
		if err := w.setup(seed, smokeSize); err != nil {
			t.Fatal(err)
		}
		r := w.pass(nil)
		if len(r.failures) > 0 {
			t.Fatal(r.failures)
		}
		return r.sim
	}
	a, b, c := run(3), run(3), run(4)
	if k := differs(a, b); k != "" {
		t.Errorf("seed 3 twice: %s differs (%v, %v)", k, a[k], b[k])
	}
	if differs(a, c) == "" {
		t.Error("seeds 3 and 4 gave identical simulated metrics")
	}
}

// BENCHMARK.json and the code declare the same workloads and metrics, so
// the two cannot drift, and the file keeps to the contract's limits.
func TestDefinitionsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []jsonMetric `json:"end_to_end"`
		PerLayer []jsonMetric `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 || doc.RunSeconds < 1 || doc.RunSeconds > 60 || len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("size %d, run_seconds %d, paths %v", len(data), doc.RunSeconds, doc.Paths)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the file, %d in the code", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: file has %q (%q), code has %q (%q)", i, doc.Workloads[i].Name, doc.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") || !metricName.MatchString(w.Name) {
			t.Errorf("workload %s: name or why breaks the contract's limits (why is %d characters)", w.Name, len(w.Why))
		}
	}
	seen := map[string]bool{}
	check := func(kind string, file []jsonMetric, code []metricDef, bounded bool) {
		if len(file) != len(code) {
			t.Fatalf("%s: %d metrics in the file, %d in the code", kind, len(file), len(code))
		}
		for i, d := range code {
			f := file[i]
			if f.Name != d.Name || f.Unit != d.Unit || f.Better != d.Better {
				t.Errorf("%s %d: file has %+v, code has %+v", kind, i, f, d)
			}
			if bounded != (f.Bound != nil) || (bounded && (*f.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25)) {
				t.Errorf("%s: bound in the file %v, in the code %v", d.Name, f.Bound, d.Bound)
			}
			if !metricName.MatchString(d.Name) || seen[d.Name] || (d.Better != "lower" && d.Better != "higher") ||
				!regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`).MatchString(d.Unit) {
				t.Errorf("%s: bad or repeated name, direction or unit", d.Name)
			}
			seen[d.Name] = true
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
}

// Every corpus program parses, and compiles with at least one prefetch
// both at its default (out-of-core) size and at the small size the
// validation runs use.
func TestCorpus(t *testing.T) {
	corpus, err := loadCorpus()
	if err != nil {
		t.Fatal(err)
	}
	if len(corpus) < 6 {
		t.Fatalf("%d corpus programs, want at least 6", len(corpus))
	}
	ps := hw.Default().PageSize
	for _, c := range corpus {
		for _, n := range []int64{c.defaultN, c.defaultN / 4} {
			prog, err := lang.Parse(c.at(n))
			if err != nil {
				t.Fatalf("%s at n=%d: %v", c.name, n, err)
			}
			if got, _ := prog.ParamValue("n"); got != n {
				t.Fatalf("%s: instantiated at n=%d, program says %d", c.name, n, got)
			}
			if err := prog.Resolve(ps); err != nil {
				t.Fatal(err)
			}
			res, err := compiler.Compile(prog, core.MachineFor(prog.TotalBytes(ps), 2), compiler.DefaultOptions())
			if err != nil {
				t.Fatalf("%s at n=%d: %v", c.name, n, err)
			}
			if hintSites(res.Prog) == 0 || !strings.Contains(ir.Print(res.Prog), "prefetch") {
				t.Errorf("%s at n=%d: no prefetch inserted", c.name, n)
			}
		}
	}
}

func TestSummarize(t *testing.T) {
	// Expected values are Python's statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 9, 2, 8, 3, 7}, 2, 7, 9},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{5}, 5, 5, 5},
	} {
		s := summarize(tc.xs)
		if s.Q1 != tc.q1 || s.Median != tc.q2 || s.Q3 != tc.q3 || s.N != len(tc.xs) {
			t.Errorf("summarize(%v) = %+v, want quartiles %v %v %v", tc.xs, s, tc.q1, tc.q2, tc.q3)
		}
	}
	if got := (summary{Q1: 9, Median: 10, Q3: 12}).spread(); got != 0.3 {
		t.Errorf("spread = %v, want 0.3", got)
	}
}

func TestNoiseFloor(t *testing.T) {
	few := [][]int64{{5, 3, 9}, {20, 10}}                          // ten samples or fewer: the minimum
	many := [][]int64{{21, 20, 19, 18, 17, 16, 15, 14, 13, 12, 1}} // eleven: the second fastest
	if got := noiseFloor(few); got != 13 {
		t.Errorf("noiseFloor(few) = %d, want 13", got)
	}
	if got := noiseFloor(many); got != 12 {
		t.Errorf("noiseFloor(many) = %d, want 12", got)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "host_s_per_pass", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "sim_coverage", Better: "higher", Bound: 0.05}
	sampled := func(q1, med, q3 float64) metricValue {
		return metricValue{Value: med, Samples: &summary{N: 9, Q1: q1, Median: med, Q3: q3}}
	}
	for _, tc := range []struct {
		name string
		d    metricDef
		a, b metricValue
		want string
	}{
		{"within the bound", lower, sampled(0.99, 1, 1.01), sampled(1.07, 1.08, 1.09), "ok"},
		{"better", lower, sampled(0.99, 1, 1.01), sampled(0.5, 0.5, 0.5), "ok"},
		{"worse, tight runs", lower, sampled(0.99, 1, 1.01), sampled(1.19, 1.2, 1.21), "regressed"},
		{"worse, noisy and overlapping", lower, sampled(0.9, 1, 1.25), sampled(1.0, 1.2, 1.3), "unresolved"},
		{"worse, noisy but apart", lower, sampled(0.9, 1, 1.1), sampled(1.4, 1.5, 1.7), "regressed"},
		{"exact, higher is better, fell", higher, metricValue{Value: 0.9}, metricValue{Value: 0.8}, "regressed"},
		{"exact, higher is better, rose", higher, metricValue{Value: 0.9}, metricValue{Value: 0.95}, "ok"},
	} {
		if got := verdict(tc.d, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareSets(t *testing.T) {
	mk := func(host float64, failed int) *reportSet {
		m := map[string]metricValue{}
		for _, d := range endToEnd {
			m[d.Name] = metricValue{Value: 1, Unit: d.Unit}
		}
		m["host_s_per_pass"] = metricValue{Value: host, Unit: "s", Samples: &summary{N: 9, Q1: host * 0.99, Median: host, Q3: host * 1.01}}
		return &reportSet{Reports: []*report{{Workload: "nas_disk", Attempted: 16, Failed: failed, Metrics: m}}}
	}
	if !compareSets(io.Discard, mk(1, 0), mk(1.05, 0), false) {
		t.Error("5% slower host time within a 10% bound was refused")
	}
	if compareSets(io.Discard, mk(1, 0), mk(1.3, 0), false) {
		t.Error("30% slower host time was accepted")
	}
	if compareSets(io.Discard, mk(1, 0), mk(1, 1), false) {
		t.Error("a rise in failed runs was accepted")
	}
}
