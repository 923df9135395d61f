package bench

import (
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/golden"
	"repro/internal/nas"
	"repro/internal/obs"
)

// TestMetricsGolden pins every exported metric name and value of a NAS
// run and of a tenant server to what the registry gave when the layers
// still pushed their values into it: BUK's original and prefetching runs
// under the chaos fault profile, merged the way the harness merges a job
// ("BUK/O/", "BUK/P/"), the prefetching run's own Result.Metrics, and a
// six-tenant server's Metrics() after Run, a cell a metric in
// testdata/metrics.golden under "merged/", "run/" and "tenants/". The
// tenant server's disk.<id>.* cells are its devices' final statistics:
// the pushing registry showed zeros there, because nothing read those
// devices' Stats on a server. Re-record (make repin) only for a change
// meant to rename a metric or move a simulated tick.
func TestMetricsGolden(t *testing.T) {
	chaos, err := fault.ParseSpec("profile=chaos,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	rec := golden.Open(t, "testdata/metrics.golden")
	defer rec.Close()
	section := func(name string, reg *obs.Registry) {
		s := reg.Snapshot()
		for metric, v := range s.Counters {
			rec.Check(t, name+"/"+metric, v)
		}
		for metric, v := range s.Gauges {
			rec.Check(t, name+"/"+metric, v)
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
	section("merged", merged)
	section("run", p.Metrics)

	reg := obs.NewRegistry()
	if err := Tenants(io.Discard, TenantOptions{Tenants: 6, Seed: 7, Faults: &chaos, Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	section("tenants", reg)
}
