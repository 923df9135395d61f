package nas

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/compiler"
	"repro/internal/exec"
	"repro/internal/golden"
	"repro/internal/hw"
	"repro/internal/ir"
	"repro/internal/lang"
)

// compileInputs returns a builder for every NAS proxy at scale 0.25 and
// every example kernel, by name: the 13 inputs the compile path is pinned
// on.
func compileInputs(t *testing.T) map[string]func() *ir.Program {
	progs := map[string]func() *ir.Program{}
	for _, app := range Apps() {
		progs[app.Name] = func() *ir.Program { return app.Build(0.25) }
	}
	files, err := filepath.Glob("../../examples/kernels/*.loop")
	if err != nil || len(files) != 5 {
		t.Fatalf("example kernel corpus: %d files, err %v", len(files), err)
	}
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		progs[filepath.Base(path)] = func() *ir.Program {
			p, err := lang.Parse(string(src))
			if err != nil {
				t.Fatalf("parse %s: %v", path, err)
			}
			return p
		}
	}
	return progs
}

// TestPrintPinned: the printed program — Figure 2 regenerated, and the
// text every site key and plan string is cut from — is byte-identical to
// what the fmt-based printer produced. testdata/print.golden holds the
// sha256 of ir.Print of the original (O) and the prefetching (P) program
// of the 13 inputs, default machine and compiler options, as recorded at
// the parent of the commit that replaced the fmt-based printer with the
// append-style one.
func TestPrintPinned(t *testing.T) {
	rec := golden.Open(t, "testdata/print.golden")
	defer rec.Close()
	machine := hw.Default()
	for name, build := range compileInputs(t) {
		prog := build()
		res, err := compiler.Compile(prog, machine, compiler.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for variant, p := range map[string]*ir.Program{"O": prog, "P": res.Prog} {
			sum := sha256.Sum256([]byte(ir.Print(p)))
			rec.Check(t, name+"/"+variant, hex.EncodeToString(sum[:]))
		}
	}
}

// compileAllocBudget is, per input, the allocations of one call of each
// compile stage — lang.Parse, Program.Clone, compiler.Compile,
// exec.Compile, ir.Print — as measured when the compile path stopped
// allocating what it throws away (before: FFT 2885, 597, 3571, 2053 and
// 2187; APPBT 644, 98, 582, 707 and 359), the compiler.Compile column as
// measured when the planner's dedup keys stopped being formatted strings
// (before: FFT 1799, APPBT 327, BUK 277, matmul.loop 195).
var compileAllocBudget = map[string][5]float64{
	"FFT":         {2884, 232, 1465, 456, 2},
	"APPBT":       {644, 94, 311, 251, 2},
	"BUK":         {186, 49, 252, 89, 2},
	"matmul.loop": {199, 41, 188, 114, 2},
}

// TestCompileAllocBudget holds each compile stage to its measured
// allocation count plus a tenth, and ir.Print to its buffer and its
// result.
func TestCompileAllocBudget(t *testing.T) {
	machine := hw.Default()
	inputs := compileInputs(t)
	for _, name := range []string{"FFT", "APPBT", "BUK", "matmul.loop"} {
		var src string
		if app := ByName(name); app != nil {
			// A NAS source is generated text private to its builder: empty
			// the parse memo, build, and the one key left is the source.
			parseMu.Lock()
			clear(parseCache)
			parseMu.Unlock()
			app.Build(0.25)
			for k := range parseCache {
				src = k
			}
		} else {
			data, err := os.ReadFile("../../examples/kernels/" + name)
			if err != nil {
				t.Fatal(err)
			}
			src = string(data)
		}
		prog := inputs[name]()
		if err := prog.Resolve(machine.PageSize); err != nil {
			t.Fatal(err)
		}
		res, err := compiler.Compile(prog, machine, compiler.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		stages := []struct {
			name string
			run  func()
		}{
			{"lang.Parse", func() { lang.MustParse(src) }},
			{"Clone", func() { prog.Clone() }},
			{"compiler.Compile", func() { compiler.Compile(prog, machine, compiler.DefaultOptions()) }},
			{"exec.Compile", func() { exec.Compile(res.Prog, machine.PageSize, exec.Options{}) }},
			{"ir.Print", func() { ir.Print(res.Prog) }},
		}
		var got [5]float64
		for i, st := range stages {
			got[i] = testing.AllocsPerRun(5, st.run)
			budget := compileAllocBudget[name][i] * 1.1
			if st.name == "ir.Print" {
				budget = 4
			}
			if got[i] > budget {
				t.Errorf("%s: %s allocates %.0f objects, budget %.0f", name, st.name, got[i], budget)
			}
		}
		t.Logf("%q: {%.0f, %.0f, %.0f, %.0f, %.0f},", name, got[0], got[1], got[2], got[3], got[4])
	}
}
