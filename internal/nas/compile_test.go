package nas

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/compiler"
	"repro/internal/exec"
	"repro/internal/golden"
	"repro/internal/hw"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/locality"
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

// TestTwoVersionCompilesAsIfKnown: a two-version compile of each input
// plans and prints as a default compile of the same input with every
// parameter known, and leaves the unknown parameters unknown. APPBT's
// inner bounds are the parameters this moves.
func TestTwoVersionCompilesAsIfKnown(t *testing.T) {
	machine := hw.Default()
	opt := compiler.DefaultOptions()
	opt.TwoVersionLoops = true
	for name, build := range compileInputs(t) {
		prog, all := build(), build()
		var unknown []*ir.Param
		for i, prm := range prog.Params {
			if !prm.Known {
				unknown = append(unknown, prm)
				all.Params[i].Known = true
			}
		}
		tv, err := compiler.Compile(prog, machine, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		known, err := compiler.Compile(all, machine, compiler.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, prm := range unknown {
			if prm.Known {
				t.Fatalf("%s: %s is still known after the two-version compile", name, prm.Name)
			}
		}
		if !reflect.DeepEqual(tv.Plan, known.Plan) {
			t.Fatalf("%s: two-version plan\n%+v\nall-known plan\n%+v", name, tv.Plan, known.Plan)
		}
		got := strings.ReplaceAll(ir.Print(tv.Prog), " /* unknown at compile time */", "")
		if want := ir.Print(known.Prog); got != want {
			t.Fatalf("%s: two-version program\n%s\nall-known program\n%s", name, got, want)
		}
	}
}

// compileAllocBudget is, per input, the allocations of one call of each
// compile stage — lang.Parse, Program.Resolve of a resolved program,
// Program.Clone, locality.Analyze, compiler.Compile, exec.Compile,
// ir.Print — as measured on budgetGo when the front end parsed straight
// to IR, and the analysis and the executor's compile looked their
// parameter bindings up in the program instead of copying them into maps
// (before: FFT 2152, 0, 102, 34, 581, 50 and 2; APPBT 434, 0, 36, 26, 92,
// 45 and 2).
var compileAllocBudget = map[string][7]float64{
	"FFT":         {713, 0, 102, 29, 576, 45, 2},
	"APPBT":       {145, 0, 36, 24, 90, 43, 2},
	"BUK":         {68, 0, 24, 21, 105, 28, 2},
	"matmul.loop": {57, 0, 18, 19, 82, 26, 2},
}

// budgetGo is the Go minor the budgets were measured on. There every count
// is held exactly; on another minor (CI's older leg) each stage may take a
// tenth more, and ir.Print its buffer and its result.
const budgetGo = "go1.24"

// TestCompileAllocBudget holds each compile stage to its measured
// allocation count.
func TestCompileAllocBudget(t *testing.T) {
	// The first collection of the process starts the collector's worker
	// goroutines, whose allocations would land in whichever stage it
	// interrupts.
	runtime.GC()
	exact := strings.HasPrefix(runtime.Version()+".", budgetGo+".")
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
			{"Program.Resolve", func() { prog.Resolve(machine.PageSize) }},
			{"Clone", func() { prog.Clone() }},
			{"locality.Analyze", func() { locality.Analyze(prog, machine.PageSize, 0) }},
			{"compiler.Compile", func() { compiler.Compile(prog, machine, compiler.DefaultOptions()) }},
			{"exec.Compile", func() { exec.Compile(res.Prog, machine.PageSize, exec.Options{}) }},
			{"ir.Print", func() { ir.Print(res.Prog) }},
		}
		var got [7]float64
		for i, st := range stages {
			got[i] = testing.AllocsPerRun(5, st.run)
			want := compileAllocBudget[name][i]
			switch {
			case exact && got[i] != want:
				t.Errorf("%s: %s allocates %.0f objects, measured %.0f on %s", name, st.name, got[i], want, budgetGo)
			case !exact && st.name == "ir.Print" && got[i] > 4:
				t.Errorf("%s: %s allocates %.0f objects, budget 4", name, st.name, got[i])
			case !exact && st.name != "ir.Print" && got[i] > want*1.1:
				t.Errorf("%s: %s allocates %.0f objects, budget %.0f", name, st.name, got[i], want*1.1)
			}
		}
		t.Logf("%q: {%.0f, %.0f, %.0f, %.0f, %.0f, %.0f, %.0f},", name, got[0], got[1], got[2], got[3], got[4], got[5], got[6])
	}
}

// TestCloneIsIndependent: a clone shares no list with its original, and
// no list of a clone runs into another. The clone of each of the 13
// inputs has one statement appended to every body and one entry to every
// subscript list and array extent list — appends a caller may make, each
// into its own slice — and the original is then
// re-parameterized and re-resolved at another page size. The clone must
// still print and fingerprint as the original did before, and so must the
// original once set back.
func TestCloneIsIndependent(t *testing.T) {
	ps := hw.Default().PageSize
	for name, build := range compileInputs(t) {
		orig := build()
		if err := orig.Resolve(ps); err != nil {
			t.Fatal(err)
		}
		print, fp := ir.Print(orig), orig.Fingerprint()
		clone := orig.Clone()
		scribble(clone)
		prm := orig.Params[0]
		val := prm.Val
		if err := orig.SetParam(prm.Name, 2*val); err != nil {
			t.Fatal(err)
		}
		if err := orig.Resolve(2 * ps); err != nil {
			t.Fatal(err)
		}
		if ir.Print(clone) != print || clone.Fingerprint() != fp {
			t.Errorf("%s: the clone changed:\n%s\nwas\n%s", name, ir.Print(clone), print)
		}
		if err := orig.SetParam(prm.Name, val); err != nil {
			t.Fatal(err)
		}
		if err := orig.Resolve(ps); err != nil {
			t.Fatal(err)
		}
		if ir.Print(orig) != print || orig.Fingerprint() != fp {
			t.Errorf("%s: the original changed:\n%s\nwas\n%s", name, ir.Print(orig), print)
		}
	}
}

// scribble appends to every list of p, keeping each result apart from the
// list it grew: only what an append writes past a list's end can show.
func scribble(p *ir.Program) {
	var keep []any
	extra := ir.Int(-7)
	for _, a := range p.Arrays {
		keep = append(keep, append(a.DimExprs, extra), append(a.Dims, -7), append(a.Strides, -7))
	}
	ir.WalkRefs(p.Body, func(_ *ir.Array, idx []ir.IExpr, _ bool, _ []*ir.Loop) {
		keep = append(keep, append(idx, extra))
	})
	ir.WalkStmts(p.Body, func(s ir.Stmt) {
		switch x := s.(type) {
		case *ir.Loop:
			keep = append(keep, append(x.Body, ir.SetI(ir.ISlot{}, extra)))
		case ir.If:
			keep = append(keep, append(x.Then, ir.SetI(ir.ISlot{}, extra)), append(x.Else, ir.SetI(ir.ISlot{}, extra)))
		}
	})
	keep = append(keep, append(p.Body, ir.SetI(ir.ISlot{}, extra)))
}
