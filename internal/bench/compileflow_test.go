package bench

import (
	"testing"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/hw"
	"repro/internal/ir"
	"repro/internal/nas"
)

// compileFlow is the compile path of the 8 NAS proxies, no simulation:
// build, resolve, the fingerprint and clone the plan cache would take, the
// prefetching pass, bytecode assembly, and the printed result — the flow of
// cmd/ooccc and of the end-to-end benchmark's compile_cold workload. Every
// stage allocates what it returns and little else, and the objects one
// call allocates are the CompileFlow cell of testdata/allocs.golden.
func compileFlow(tb testing.TB) func() {
	ps := hw.Default().PageSize
	opts := compiler.DefaultOptions()
	return func() {
		for _, app := range nas.Apps() {
			prog := app.Build(0.25)
			if err := prog.Resolve(ps); err != nil {
				tb.Fatal(err)
			}
			machine := core.MachineFor(prog.TotalBytes(ps), 2)
			prog.Fingerprint()
			res, err := compiler.Compile(prog.Clone(), machine, opts)
			if err != nil {
				tb.Fatal(err)
			}
			if _, err := exec.Compile(res.Prog, ps, exec.Options{}); err != nil {
				tb.Fatal(err)
			}
			if len(ir.Print(res.Prog)) == 0 {
				tb.Fatal("empty print")
			}
		}
	}
}

func BenchmarkCompileFlow(b *testing.B) { bench(b, compileFlow(b)) }
