package lang

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/hw"
)

// A constant sub-expression that divides by zero is not a constant: as a
// parameter value or an array extent it is a typed error, and as a loop
// bound it is the executors' run-time trap — the same one on the
// bytecode and on the oracle. Each of the four once crashed the process
// from inside ir.ConstEval.
func TestConstantDivisionByZero(t *testing.T) {
	for _, c := range []struct{ src, want string }{
		{"program p\nparam n = 8 % 0\narray double a[n]\n", "2:1: param n: value must be constant (no division by zero)"},
		{"program p\nparam n = 8 / 0\narray double a[n]\n", "2:1: param n: value must be constant (no division by zero)"},
	} {
		if _, err := Parse(c.src); err == nil || err.Error() != c.want {
			t.Errorf("Parse(%q) = %v, want %q", c.src, err, c.want)
		}
	}

	prog, err := Parse("program p\nparam n = 8\narray double a[n / 0]\n")
	if err != nil {
		t.Fatal(err)
	}
	const wantExtent = "ir: array a: extent (n / 0) not evaluable from parameters"
	if err := prog.Resolve(hw.Default().PageSize); err == nil || err.Error() != wantExtent {
		t.Errorf("Resolve = %v, want %q", err, wantExtent)
	}

	const bound = "program p\nparam n = 8\narray double a[n]\nfor i = 0 .. n / 0 {\n    a[i] = 1.0\n}\n"
	for _, oracle := range []bool{false, true} {
		for _, prefetch := range []bool{false, true} {
			prog, err := Parse(bound)
			if err != nil {
				t.Fatal(err)
			}
			cfg := core.DefaultConfig(core.MachineFor(1<<20, 2))
			cfg.NoFastPath, cfg.Prefetch = oracle, prefetch
			_, err = core.Run(prog, cfg)
			var trap *exec.TrapError
			if !errors.As(err, &trap) || !strings.HasSuffix(err.Error(), "exec: integer divide by zero") {
				t.Errorf("oracle=%v prefetch=%v: Run = %v, want the divide trap", oracle, prefetch, err)
			}
		}
	}
}

// FuzzParse holds the front end's contract on inputs its authors did not
// write: Parse returns (a program or a typed error), and a program it
// accepts resolves, goes through the prefetching pass and assembles to
// bytecode, before and after the pass, without panicking. The compile
// stages run only on inputs up to 2 KB to keep an execution cheap.
func FuzzParse(f *testing.F) {
	for _, glob := range []string{"../../examples/kernels/*.loop", "../../benchmark/corpus/*.loop", "testdata/nas/*.loop"} {
		paths, err := filepath.Glob(glob)
		if err != nil || len(paths) == 0 {
			f.Fatalf("no seeds under %s (%v)", glob, err)
		}
		for _, path := range paths {
			src, err := os.ReadFile(path)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(string(src))
		}
	}
	machine := hw.Default()
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		if err != nil || len(src) > 2<<10 {
			return
		}
		if prog.Resolve(machine.PageSize) != nil {
			return
		}
		if _, err := exec.Compile(prog, machine.PageSize, exec.Options{}); err != nil {
			return
		}
		res, err := compiler.Compile(prog.Clone(), machine, compiler.DefaultOptions())
		if err != nil {
			return
		}
		if _, err := exec.Compile(res.Prog, machine.PageSize, exec.Options{}); err != nil {
			t.Fatalf("the compiler's output does not assemble: %v", err)
		}
	})
}
