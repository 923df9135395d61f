package nas_test

import (
	"testing"

	"repro/internal/compiler"
	"repro/internal/exec"
	"repro/internal/hw"
	"repro/internal/nas"
)

// TestNASHintSitesEmitNoClosureCalls compiles every NAS proxy through
// the full prefetching pipeline and asserts the no-fallback property of
// the lowering: every loop — page-run loops included — and every
// compiler-inserted prefetch/release statement runs as bytecode, so the
// artifact carries no closure-call slot.
func TestNASHintSitesEmitNoClosureCalls(t *testing.T) {
	machine := hw.Default()
	for _, app := range nas.Apps() {
		t.Run(app.Name, func(t *testing.T) {
			res, err := compiler.Compile(app.Build(0.05), machine, compiler.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			art, err := exec.Compile(res.Prog, machine.PageSize, exec.Options{})
			if err != nil {
				t.Fatal(err)
			}
			hints, pageRuns, compiled := 0, 0, 0
			for _, r := range art.Reports() {
				hints += r.Hints
				switch r.Driver {
				case "page-run":
					pageRuns++
					compiled++
				case "kernel":
					compiled++
				case "closure":
					t.Errorf("loop %s fell back to the closure driver (%s)", r.Var, r.Reason)
				}
			}
			if compiled == 0 {
				t.Fatal("no loop compiled to bytecode — assertion is vacuous")
			}
			if hints == 0 {
				t.Fatal("prefetching compile lowered no hints — assertion is vacuous")
			}
			if pageRuns == 0 {
				t.Error("no page-run loop — the span lowering never engaged")
			}
			if got := art.CallSites(); got != 0 {
				t.Errorf("CallSites = %d, want 0", got)
			}
		})
	}
}
