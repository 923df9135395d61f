package exec_test

import (
	"testing"

	"repro/internal/compiler"
	"repro/internal/exec"
	"repro/internal/hw"
	"repro/internal/ir"
	"repro/internal/nas"
)

// TestNASAbsorbingLoops is the structural half of inner-loop absorption:
// in every NAS proxy, original and prefetching build alike, no page-run
// layout sits inside another page-run loop's per-element body; and the
// hot nests of APPLU, APPSP and APPBT (block solve included) report their
// k/k2 loops page-run and the component loops under them absorbed — no
// `loop m page-run` line for a loop that can never run as one.
func TestNASAbsorbingLoops(t *testing.T) {
	machine := hw.Default()
	for _, app := range nas.Apps() {
		orig := app.Build(0.05)
		pf, err := compiler.Compile(app.Build(0.05), machine, compiler.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for variant, prog := range map[string]*ir.Program{"O": orig, "P": pf.Prog} {
			art, err := exec.Compile(prog, machine.PageSize, exec.Options{})
			if err != nil {
				t.Fatalf("%s/%s: %v", app.Name, variant, err)
			}
			if n := art.NestedSpanLayouts(); n != 0 {
				t.Errorf("%s/%s: %d page-run layout instructions inside a per-element body", app.Name, variant, n)
			}
			if app.Name != "APPLU" && app.Name != "APPSP" && app.Name != "APPBT" {
				continue
			}
			absorbed, absorbing := 0, 0
			for _, r := range art.Reports() {
				switch r.Var {
				case "m", "q":
					if r.Driver != "kernel" || r.Reason != exec.ReasonAbsorbed {
						t.Errorf("%s/%s: component loop reports %q, want absorbed", app.Name, variant, r)
					}
					absorbed++
				case "k", "k2":
					if r.Driver != "page-run" || r.Unroll != 5 && r.Unroll != 25 {
						t.Errorf("%s/%s: %q, want page-run with 5 or 25 copies", app.Name, variant, r)
					}
					absorbing++
				}
			}
			if absorbing == 0 || absorbed < absorbing {
				t.Errorf("%s/%s: %d absorbing loops over %d absorbed ones", app.Name, variant, absorbing, absorbed)
			}
		}
	}
}
