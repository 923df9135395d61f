package bench

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/nas"
	"repro/internal/obs"
)

var updateMetrics = flag.Bool("update", false, "rewrite testdata/metrics.golden from current output")

// metricsDump renders every registry the harness exports from one NAS
// run and one tenant server, each as WriteJSON prints it: BUK's original
// and prefetching runs under the chaos fault profile, merged the way the
// harness merges a job ("BUK/O/", "BUK/P/"), the prefetching run's own
// Result.Metrics, and a six-tenant server's Metrics() after Run.
func metricsDump(t *testing.T) []byte {
	t.Helper()
	chaos, err := fault.ParseSpec("profile=chaos,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	section := func(name string, reg *obs.Registry) {
		out.WriteString("== " + name + "\n")
		if err := reg.WriteJSON(&out); err != nil {
			t.Fatal(err)
		}
	}

	app := nas.ByName("BUK")
	base, _, err := ConfigFor(app, 0.25, 0)
	if err != nil {
		t.Fatal(err)
	}
	base.Faults = &chaos
	merged := obs.NewRegistry()
	var p *core.Result
	for _, v := range []variant{original, prefetching} {
		cfg := base
		v.adjust(&cfg)
		res, err := core.Run(app.Build(0.25), cfg)
		if err != nil {
			t.Fatal(err)
		}
		merged.Merge("BUK/"+v.tag+"/", res.Metrics)
		p = res
	}
	section("BUK merged", merged)
	section("BUK/P Result.Metrics", p.Metrics)

	reg := obs.NewRegistry()
	if err := Tenants(io.Discard, TenantOptions{Tenants: 6, Seed: 7, Faults: &chaos, Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	section("tenants Metrics()", reg)
	return out.Bytes()
}

// TestMetricsGolden pins every exported metric name and value of a NAS
// run and of a tenant server, byte for byte, to the output the registry
// gave when the layers still pushed their values into it. The tenant
// server's disk.<id>.* lines are its devices' final statistics: the
// pushing registry showed zeros there, because nothing read those
// devices' Stats on a server. Regenerate with `go test ./internal/bench
// -run TestMetricsGolden -update` only for a change meant to rename a
// metric or move a simulated tick.
func TestMetricsGolden(t *testing.T) {
	got := metricsDump(t)
	golden := filepath.Join("testdata", "metrics.golden")
	if *updateMetrics {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("metrics differ from %s at line %d:\n got %s\nwant %s", golden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("metrics differ from %s in length: %d lines, want %d", golden, len(gl), len(wl))
	}
}
