package nas

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
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

// compileSources returns the source text of every one of the 13 inputs, by
// name: a NAS source is generated text private to its builder, so the
// parse memo is emptied, the app built, and the one key left is its
// source.
func compileSources(t *testing.T) map[string]string {
	srcs := map[string]string{}
	for _, app := range Apps() {
		parseMu.Lock()
		clear(parseCache)
		parseMu.Unlock()
		app.Build(0.25)
		for k := range parseCache {
			srcs[app.Name] = k
		}
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
		srcs[filepath.Base(path)] = string(src)
	}
	return srcs
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

// budgetGo is the Go minor testdata/compile_allocs.golden was recorded
// on. There every cell is held exactly; on another minor (CI's older leg)
// each stage may take a tenth more objects and bytes, and ir.Print up to
// four objects.
const budgetGo = "go1.24"

// TestCompileAllocBudget holds each compile stage — lang.Parse,
// Program.Resolve of a resolved program, Program.Clone, locality.Analyze
// with the analysis released as compiler.Compile releases its own,
// compiler.Compile, exec.Compile and ir.Print — to the objects and bytes
// one call allocates, after a first call has grown the stage's stashed
// working memory to what the input needs: cells <input>/<stage>/objects
// and <input>/<stage>/bytes of testdata/compile_allocs.golden.
func TestCompileAllocBudget(t *testing.T) {
	// The first collection of the process starts the collector's worker
	// goroutines, whose allocations would land in whichever stage it
	// interrupts.
	runtime.GC()
	exact := strings.HasPrefix(runtime.Version()+".", budgetGo+".")
	var rec *golden.Record
	if exact {
		rec = golden.Open(t, "testdata/compile_allocs.golden")
		defer rec.Close()
	} else {
		rec = golden.Read(t, "testdata/compile_allocs.golden")
	}
	machine := hw.Default()
	inputs, srcs := compileInputs(t), compileSources(t)
	for _, name := range []string{"FFT", "APPBT", "BUK", "matmul.loop"} {
		src, prog := srcs[name], inputs[name]()
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
			{"locality.Analyze", func() { locality.Analyze(prog, machine.PageSize, 0).Release() }},
			{"compiler.Compile", func() { compiler.Compile(prog, machine, compiler.DefaultOptions()) }},
			{"exec.Compile", func() { exec.Compile(res.Prog, machine.PageSize, exec.Options{}) }},
			{"ir.Print", func() { ir.Print(res.Prog) }},
		}
		for _, st := range stages {
			objects, bytes := allocsPerCall(5, st.run)
			for _, c := range []struct {
				unit string
				got  uint64
			}{{"objects", objects}, {"bytes", bytes}} {
				cell := name + "/" + st.name + "/" + c.unit
				if exact {
					rec.Check(t, cell, c.got)
					continue
				}
				v, _ := rec.Want(cell)
				want, err := strconv.ParseUint(v, 10, 64)
				switch {
				case err != nil:
					t.Errorf("%s: recorded %q: %v", cell, v, err)
				case st.name == "ir.Print" && c.unit == "objects" && c.got > 4:
					t.Errorf("%s: %d, budget 4", cell, c.got)
				case !(st.name == "ir.Print" && c.unit == "objects") && float64(c.got) > float64(want)*1.1:
					t.Errorf("%s: %d, budget %.0f (%d on %s)", cell, c.got, float64(want)*1.1, want, budgetGo)
				}
			}
		}
	}
}

// allocsPerCall is testing.AllocsPerRun for objects and bytes: after one
// call of f, the objects and bytes the next runs calls allocate, per call.
func allocsPerCall(runs int, f func()) (objects, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(runs), (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestConcurrentCompiles: four goroutines at once take the 13 inputs'
// sources through the compile path — lang.Parse, Resolve,
// compiler.Compile, exec.Compile, ir.Print — each from another input on,
// and each gets what a sequential run got: the printed program, and the
// artifact, bytecode, side tables and loop reports, deeply equal. Each
// stage keeps its working memory in a one-slot stash, so here calls find
// it held by another and work on their own; the locality stash is held by
// the test throughout, so every analysis in the goroutines is of that kind.
func TestConcurrentCompiles(t *testing.T) {
	machine := hw.Default()
	srcs := compileSources(t)
	var names []string
	for name := range srcs {
		names = append(names, name)
	}
	slices.Sort(names)
	type output struct {
		printed string
		art     *exec.Artifact
	}
	compile := func(name string) (output, error) {
		prog, err := lang.Parse(srcs[name])
		if err != nil {
			return output{}, err
		}
		if err := prog.Resolve(machine.PageSize); err != nil {
			return output{}, err
		}
		res, err := compiler.Compile(prog, machine, compiler.DefaultOptions())
		if err != nil {
			return output{}, err
		}
		art, err := exec.Compile(res.Prog, machine.PageSize, exec.Options{})
		if err != nil {
			return output{}, err
		}
		return output{ir.Print(res.Prog), art}, nil
	}
	want := map[string]output{}
	for _, name := range names {
		out, err := compile(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want[name] = out
	}

	prog, err := lang.Parse(srcs["FFT"])
	if err != nil || prog.Resolve(machine.PageSize) != nil {
		t.Fatalf("FFT: %v", err)
	}
	held := locality.Analyze(prog, machine.PageSize, 0)
	defer held.Release()
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := range names {
				name := names[(i+3*g)%len(names)]
				got, err := compile(name)
				switch {
				case err != nil:
					t.Errorf("goroutine %d, %s: %v", g, name, err)
				case got.printed != want[name].printed:
					t.Errorf("goroutine %d, %s: printed\n%s\nsequentially\n%s", g, name, got.printed, want[name].printed)
				case !reflect.DeepEqual(got.art, want[name].art):
					t.Errorf("goroutine %d, %s: the artifact differs from the sequential run's (reports %+v, sequentially %+v)",
						g, name, got.art.Reports(), want[name].art.Reports())
				}
			}
		}()
	}
	close(start)
	wg.Wait()
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
