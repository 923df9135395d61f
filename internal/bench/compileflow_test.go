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

// BenchmarkCompileFlow is one op = the compile path of the 8 NAS proxies,
// no simulation: build, resolve, the fingerprint and clone the plan cache
// would take, the prefetching pass, bytecode assembly, and the printed
// result — the flow of cmd/ooccc and of the end-to-end benchmark's
// compile_cold workload. Its allocs/op is what the benchdiff gate holds:
// every stage allocates what it returns and little else.
func BenchmarkCompileFlow(b *testing.B) {
	ps := hw.Default().PageSize
	opts := compiler.DefaultOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, app := range nas.Apps() {
			prog := app.Build(0.25)
			if err := prog.Resolve(ps); err != nil {
				b.Fatal(err)
			}
			machine := core.MachineFor(prog.TotalBytes(ps), 2)
			prog.Fingerprint()
			res, err := compiler.Compile(prog.Clone(), machine, opts)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := exec.Compile(res.Prog, ps, exec.Options{}); err != nil {
				b.Fatal(err)
			}
			if len(ir.Print(res.Prog)) == 0 {
				b.Fatal("empty print")
			}
		}
	}
}
