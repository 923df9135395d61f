// Benchmarks regenerating every table and figure of the paper's
// evaluation section. Each benchmark runs the corresponding experiment
// end-to-end on the simulated system and reports the headline metric as a
// custom benchmark unit, so `go test -bench=. -benchmem` reproduces the
// whole evaluation. Run a single one with e.g. `go test -bench=Fig3`.
package oocp_test

import (
	"context"
	"io"
	"testing"

	oocp "repro"
)

// benchScale trades fidelity for benchmark wall-clock; 1.0 is the paper's
// standard size and is what EXPERIMENTS.md records.
const benchScale = 0.5

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		oocp.Table1(io.Discard)
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		oocp.Table2(io.Discard, benchScale)
	}
}

func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs, err := oocp.RunSuiteContext(context.Background(), oocp.Runner{}, oocp.SuiteOptions{Scale: benchScale})
		if err != nil {
			b.Fatal(err)
		}
		oocp.Fig3(io.Discard, rs)
		var geo float64 = 1
		for _, r := range rs {
			geo *= r.Speedup()
		}
		b.ReportMetric(geo, "product-speedup")
	}
}

func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs, err := oocp.RunSuiteContext(context.Background(), oocp.Runner{}, oocp.SuiteOptions{Scale: benchScale, WithNoRT: true})
		if err != nil {
			b.Fatal(err)
		}
		oocp.Fig4(io.Discard, rs)
	}
}

func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs, err := oocp.RunSuiteContext(context.Background(), oocp.Runner{}, oocp.SuiteOptions{Scale: benchScale})
		if err != nil {
			b.Fatal(err)
		}
		oocp.Fig5(io.Discard, rs)
	}
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs, err := oocp.RunSuiteContext(context.Background(), oocp.Runner{}, oocp.SuiteOptions{Scale: benchScale})
		if err != nil {
			b.Fatal(err)
		}
		oocp.Table3(io.Discard, rs)
	}
}

func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := oocp.Fig6Context(context.Background(), io.Discard, benchScale, oocp.Runner{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := oocp.Fig7Context(context.Background(), io.Discard, benchScale, oocp.Runner{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := oocp.Fig8Context(context.Background(), io.Discard, 4<<20, oocp.Runner{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := oocp.AblateAllContext(context.Background(), io.Discard, benchScale, oocp.Runner{}); err != nil {
			b.Fatal(err)
		}
	}
}

// Per-application benchmarks: the O and P configurations of each NAS
// kernel, reporting the speedup as a metric.
func BenchmarkApps(b *testing.B) {
	for _, app := range oocp.Suite() {
		app := app
		b.Run(app.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := oocp.RunAppPair(app, benchScale, 0)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(r.Speedup(), "speedup")
				b.ReportMetric(r.P.Mem.CoverageFactor()*100, "coverage%")
			}
		})
	}
}
