package exec_test

import (
	"testing"

	"repro/internal/compiler"
	"repro/internal/exec"
	"repro/internal/golden"
	"repro/internal/hw"
	"repro/internal/ir"
)

// TestBytecodePinned: a change to how the nest compiler builds its output
// — not to what it builds — leaves every instruction, side table and
// register count of these 26 programs as they were. testdata/bytecode.golden
// holds the BytecodeHash of the original (O) and the prefetching (P)
// program of every NAS proxy at scale 0.25 and every example kernel,
// default machine and compiler options, as recorded when opIdx3,
// opHintIdx3 and opFAccDot2 were deleted (which renumbers the opcodes
// after opIFromF and drops hintAux's dist field from the hash).
func TestBytecodePinned(t *testing.T) {
	rec := golden.Open(t, "testdata/bytecode.golden")
	defer rec.Close()
	machine := hw.Default()
	for name, build := range corpus(t, 0.25) {
		res, err := compiler.Compile(build(), machine, compiler.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for variant, prog := range map[string]*ir.Program{"O": build(), "P": res.Prog} {
			art, err := exec.Compile(prog, machine.PageSize, exec.Options{})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, variant, err)
			}
			rec.Check(t, name+"/"+variant, art.BytecodeHash())
		}
	}
}
