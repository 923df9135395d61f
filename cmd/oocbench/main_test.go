package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// oocbench runs the harness with args and returns its exit status and both
// streams.
func oocbench(args ...string) (code int, stdout, stderr string) {
	var out, errw bytes.Buffer
	code = run(context.Background(), args, &out, &errw)
	return code, out.String(), errw.String()
}

// mustRun is oocbench for a command line that has to succeed.
func mustRun(t *testing.T, args ...string) string {
	t.Helper()
	code, out, errs := oocbench(args...)
	if code != 0 {
		t.Fatalf("oocbench %v: exit %d\n%s", args, code, errs)
	}
	return out
}

// counters reads a -metrics snapshot.
func counters(t *testing.T, path string) map[string]int64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Gauges are floats; only the integer counters are read here.
	var all map[string]json.Number
	if err := json.Unmarshal(data, &all); err != nil {
		t.Fatal(err)
	}
	out := map[string]int64{}
	for k, v := range all {
		if n, err := v.Int64(); err == nil {
			out[k] = n
		}
	}
	return out
}

// A command line the harness cannot run exits 2 with one line naming the
// flag on stderr and nothing on stdout — never a half-printed figure or
// a silently different experiment.
func TestUsageErrors(t *testing.T) {
	for _, c := range []struct{ args, want string }{
		{"-exp nope", `unknown experiment "nope"`},
		{"-scale 0", "-scale must be positive, got 0"},
		{"-parallel 0", "-parallel must be positive, got 0"},
		{"-timeout -1s", "-timeout must not be negative, got -1s"},
		{"-tenants 0", "-tenants must be positive, got 0"},
		{"-exp fig8 -mem 0", "-mem must be positive, got 0"},
		{"-exp fig8 -mem -3", "-mem must be positive, got -3"},
		{"-ratio -1", "-ratio must not be negative, got -1"},
		{"-qos gold", "-qos requires -tenants"},
		{"-seed 3", "-seed requires -tenants"},
		{"-tenants 2 -exp fig3", "-exp does not apply to the -tenants"},
		{"-tenants 2 -ratio 2", "-ratio does not apply to the -tenants"},
		{"-tenants 2 -mem 4", "-mem does not apply to the -tenants"},
		{"-tenants 2 -parallel 2", "-parallel does not apply to the -tenants"},
		{"-tenants 2 -timeout 1s", "-timeout does not apply to the -tenants"},
		{"-tenants 2 -progress", "-progress does not apply to the -tenants"},
		{"-tenants 2 -explain-fastpath", "-explain-fastpath does not apply to the -tenants"},
		{"-tenants 2 -profile-record p.json", "-profile-record does not apply to the -tenants"},
		{"-tenants 2 -profile-use p.json", "-profile-use does not apply to the -tenants"},
		{"-profile-record a.json -profile-use b.json", "mutually exclusive"},
		{"-profile-record a.json -exp fig3", "-exp does not apply to -profile-record"},
		{"-exp fig7 -backend nvme", "-backend applies to the NAS suite experiments"},
		{"-exp fig6 -faults brownout", "-faults applies to the NAS suite experiments"},
		{"-exp fig8 -profile-use p.json", "-profile-use applies to the NAS suite experiments"},
		{"-backend floppy", "floppy"},
		{"-backend disk,sched=lifo", `unknown scheduler "lifo"`},
		{"-faults nosuch", "nosuch"},
		{"-tenants 2 -qos platinum", "platinum"},
		{"-no-such-flag", "flag provided but not defined"},
	} {
		code, out, errs := oocbench(strings.Fields(c.args)...)
		if code != 2 || out != "" {
			t.Errorf("oocbench %s: exit %d, stdout %q; want exit 2 and no output", c.args, code, out)
		}
		if !strings.Contains(errs, c.want) || strings.Contains(errs, "goroutine") {
			t.Errorf("oocbench %s: stderr %q, want %q", c.args, errs, c.want)
		}
		if c.args != "-no-such-flag" && strings.Count(errs, "\n") != 1 {
			t.Errorf("oocbench %s: stderr is not one line: %q", c.args, errs)
		}
	}
	// A run that fails after its flags parsed exits 1, still with no
	// figure on stdout: 16 KB is under the VM's 8-page minimum.
	if code, out, errs := oocbench("-exp", "fig8", "-mem", "0.015"); code != 1 || out != "" || !strings.Contains(errs, "under 8 pages") {
		t.Errorf("-mem 0.015: exit %d, stdout %q, stderr %q", code, out, errs)
	}
	if code, _, errs := oocbench("-exp", "fig3", "-profile-use", filepath.Join(t.TempDir(), "missing.json")); code != 1 || !strings.Contains(errs, "missing.json") {
		t.Errorf("missing artifact: exit %d, stderr %q", code, errs)
	}
}

// The whole evaluation is byte-identical on a pool of one and a pool of
// eight, and a sub-figure name selects its figure.
func TestAllExperimentsParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment twice")
	}
	serial := mustRun(t, "-exp", "all", "-scale", "0.05", "-parallel", "1")
	parallel := mustRun(t, "-exp", "all", "-scale", "0.05", "-parallel", "8")
	if serial != parallel {
		t.Errorf("-parallel 8 differs from -parallel 1:\n--- 1 ---\n%s\n--- 8 ---\n%s", serial, parallel)
	}
	for _, want := range []string{"Table 1", "Table 2", "Figure 3(a)", "Figure 4(c)", "Figure 5", "Table 3",
		"Figure 6", "Figure 7", "Figure 8", "two-version", "pages per block", "release hints", "disk scheduling"} {
		if !strings.Contains(serial, want) {
			t.Errorf("-exp all output is missing %q", want)
		}
	}
	for alias, exp := range map[string]string{"fig3a": "fig3", "fig4c": "fig4"} {
		if a, e := mustRun(t, "-exp", alias, "-scale", "0.05"), mustRun(t, "-exp", exp, "-scale", "0.05"); a != e || !strings.Contains(e, "Figure "+exp[3:]) {
			t.Errorf("-exp %s does not print -exp %s", alias, exp)
		}
	}
}

// Same tenant mix and seed, same bytes; a fault profile shows up as
// injected faults.
func TestTenantsDeterministic(t *testing.T) {
	args := []string{"-tenants", "3", "-qos", "gold,silver,be", "-seed", "11", "-scale", "0.25"}
	first, second := mustRun(t, args...), mustRun(t, args...)
	if first != second {
		t.Errorf("two runs of %v differ:\n%s\n---\n%s", args, first, second)
	}
	if !strings.Contains(first, "3 tenants") || strings.Contains(first, "faults injected") {
		t.Errorf("unexpected report:\n%s", first)
	}
	dir := t.TempDir()
	faulted := mustRun(t, append(args, "-faults", "brownout", "-backend", "disk,disks=4",
		"-metrics", filepath.Join(dir, "m.json"), "-trace", filepath.Join(dir, "t.json"))...)
	line := faulted[strings.Index(faulted, "faults injected:"):]
	if !strings.Contains(faulted, "faults injected:") || strings.HasPrefix(line, "faults injected: 0 read errors, 0 slowdowns, 0 brownout failures, 0 dropped") {
		t.Errorf("-faults brownout injected nothing:\n%s", faulted)
	}
	if c := counters(t, filepath.Join(dir, "m.json")); c["admission.admitted"] != 3 {
		t.Errorf("admission.admitted = %d, want 3", c["admission.admitted"])
	}
	if fi, err := os.Stat(filepath.Join(dir, "t.json")); err != nil || fi.Size() == 0 {
		t.Errorf("-trace wrote nothing: %v", err)
	}
}

// The two-pass mode end to end: recording is deterministic, and a
// self-recorded artifact used at the same scale mismatches nowhere.
func TestProfileRecordThenUse(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the suite three times")
	}
	dir := t.TempDir()
	var sums [2][32]byte
	for i := range sums {
		path := filepath.Join(dir, "p"+string(rune('0'+i))+".json")
		out := mustRun(t, "-profile-record", path, "-scale", "0.05", "-parallel", []string{"1", "8"}[i])
		if !strings.Contains(out, "wrote 8 kernel profiles") {
			t.Fatalf("record output:\n%s", out)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sums[i] = sha256.Sum256(data)
	}
	if sums[0] != sums[1] {
		t.Error("two recordings of the same configuration differ")
	}
	metrics := filepath.Join(dir, "m.json")
	static := mustRun(t, "-exp", "fig4", "-scale", "0.05")
	guided := mustRun(t, "-exp", "fig4", "-scale", "0.05", "-profile-use", filepath.Join(dir, "p0.json"), "-metrics", metrics)
	if static == guided {
		t.Error("-profile-use changed nothing in Figure 4")
	}
	seen := 0
	for name, v := range counters(t, metrics) {
		if strings.HasSuffix(name, "/profile.mismatch") {
			seen++
			if v != 0 || strings.Contains(name, "/O/") {
				t.Errorf("%s = %d, want 0 and only on prefetching runs", name, v)
			}
		}
	}
	if seen != 16 { // 8 apps × (P, no-rt)
		t.Errorf("%d profile.mismatch counters, want 16", seen)
	}
	if code, _, errs := oocbench("-exp", "fig3", "-profile-use", metrics); code != 1 || !strings.Contains(errs, "profile:") {
		t.Errorf("a non-artifact as -profile-use: exit %d, stderr %q", code, errs)
	}
}

// A pool job is one simulated run everywhere: Figure 6 is 8 apps × cold
// and warm × O and P, and -progress names each with its variant.
func TestOneJobPerRun(t *testing.T) {
	dir := t.TempDir()
	metrics, trace := filepath.Join(dir, "m.json"), filepath.Join(dir, "t.json")
	code, out, errs := oocbench("-exp", "fig6", "-scale", "0.05", "-parallel", "2", "-progress", "-metrics", metrics, "-trace", trace)
	if code != 0 || !strings.Contains(out, "Figure 6") {
		t.Fatalf("exit %d\n%s%s", code, out, errs)
	}
	c := counters(t, metrics)
	if c["runner.jobs"] != 32 || c["runner.attempts"] != 32 || c["runner.jobs_failed"] != 0 {
		t.Errorf("runner.jobs %d, attempts %d, failed %d; want 32, 32, 0",
			c["runner.jobs"], c["runner.attempts"], c["runner.jobs_failed"])
	}
	if n := strings.Count(errs, "\n"); n != 32 || !strings.Contains(errs, "[ 32/ 32]") ||
		!strings.Contains(errs, "EMBAR/warm/P") || !strings.Contains(errs, "BUK/cold/O") {
		t.Errorf("%d progress lines, want 32 labelled <app>/<case>/<variant>:\n%s", n, errs)
	}
	if _, ok := c["MGRID/warm/O/vm.faults.minor"]; !ok {
		t.Error("no MGRID/warm/O/ counters in the snapshot")
	}
	if fi, err := os.Stat(trace); err != nil || fi.Size() == 0 {
		t.Errorf("-trace wrote nothing: %v", err)
	}
}

// A per-run timeout fails the run it bounds, with exit 1 and no figure.
func TestTimeoutAndDiagnostics(t *testing.T) {
	code, out, errs := oocbench("-exp", "fig7", "-scale", "0.3", "-timeout", "1ms")
	if code != 1 || out != "" || !strings.Contains(errs, "run exceeded 1ms") {
		t.Errorf("-timeout 1ms: exit %d, stdout %q, stderr %q", code, out, errs)
	}
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	report := mustRun(t, "-explain-fastpath", "-scale", "0.05", "-cpuprofile", cpu, "-memprofile", mem)
	if !strings.Contains(report, "APPBT:") || !strings.Contains(report, "page-run") || !strings.Contains(report, "absorbed") {
		t.Errorf("-explain-fastpath report:\n%s", report)
	}
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("%s: not written (%v)", path, err)
		}
	}
}
