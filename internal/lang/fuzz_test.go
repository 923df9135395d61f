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

// divisionCases are parameters whose value divides by a constant zero,
// each with its error.
var divisionCases = []struct{ src, want string }{
	{"program p\nparam n = 8 % 0\narray double a[n]\n", "2:1: param n: value must be constant (no division by zero)"},
	{"program p\nparam n = 8 / 0\narray double a[n]\n", "2:1: param n: value must be constant (no division by zero)"},
}

// A constant sub-expression that divides by zero is not a constant: as a
// parameter value or an array extent it is a typed error, and as a loop
// bound it is the executor's run-time trap (the oracle raises the same
// one: internal/exec's TestTrapTextBothExecutors). Each of the four once
// crashed the process from inside ir.ConstEval.
func TestConstantDivisionByZero(t *testing.T) {
	for _, c := range divisionCases {
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
	for _, prefetch := range []bool{false, true} {
		prog, err := Parse(bound)
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.DefaultConfig(core.MachineFor(1<<20, 2))
		cfg.Prefetch = prefetch
		_, err = core.Run(prog, cfg)
		var trap *exec.TrapError
		if !errors.As(err, &trap) || !strings.HasSuffix(err.Error(), "exec: integer divide by zero") {
			t.Errorf("prefetch=%v: Run = %v, want the divide trap", prefetch, err)
		}
	}
}

// FuzzParse holds the front end's contract on inputs its authors did not
// write: Parse returns a program or a *Error positioned at line and column
// 1 or later, and a program it accepts resolves, goes through the
// prefetching pass and assembles to bytecode, before and after the pass,
// without panicking. The compile stages run only on inputs up to 2 KB to
// keep an execution cheap. Every Parse, a syntax error's recovered panic
// included, puts the parser it took, token buffer and all, back in the
// stash, emptied. The seeds are the checked-in programs and the sources
// of the error tables.
func FuzzParse(f *testing.F) {
	for _, c := range errorCases {
		f.Add(c.src)
	}
	for _, c := range divisionCases {
		f.Add(c.src)
	}
	for _, glob := range sourceGlobs {
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
		kept := pstash.Take()
		pstash.Put(kept)
		prog, err := Parse(src)
		if back := pstash.Take(); back != kept || len(back.toks) != 0 || len(back.syms) != 0 {
			t.Fatalf("Parse did not put its parser back emptied: %p, was %p, %d tokens, %d symbols", back, kept, len(back.toks), len(back.syms))
		} else {
			pstash.Put(back)
		}
		if err != nil {
			if le, ok := err.(*Error); !ok || le.Line < 1 || le.Col < 1 {
				t.Fatalf("Parse error %v (%T) is not a positioned *Error", err, err)
			}
			return
		}
		if len(src) > 2<<10 {
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
