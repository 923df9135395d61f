package nas

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/compiler"
	"repro/internal/exec"
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

// printPins are the sha256 of ir.Print of the original (O) and the
// prefetching (P) program of the 13 inputs, default machine and compiler
// options, recorded at the parent of the commit that replaced the
// fmt-based printer with the append-style one.
var printPins = map[string]string{
	"APPBT/O":          "0b5ea57f26eee5306116c6029efb5d6bb2da359bba5bdd0119e950ede191c7e1",
	"APPBT/P":          "8f0fe43f951be04a382db5141ea62ece10a36aa5ccc424e0e6571a68511746a7",
	"APPLU/O":          "5377a0e0e7222bfab576de6debef88542a105f1ad00ee4ec897e85342d045aeb",
	"APPLU/P":          "f70bd0b9b07b6826988c16822e132b39ee8ec0d5fa655402ba62a8e0f7c5299a",
	"APPSP/O":          "e1da37233478fae1f46244121adf6f39af83eb90fc0203a3202630dab389b860",
	"APPSP/P":          "e1a194087e35fc3b6ccd07f16015bd35c6ec925b317c55703447e0da357e033b",
	"BUK/O":            "7df1bf9ce8435b70663187f25316f2674216481b5210a722229f1447b7452d39",
	"BUK/P":            "8c4c75f08abf93f21bfbf95d00be7e47165111638a00f36aa5de3ff4e4584b9d",
	"CGM/O":            "422453b34cebb2e27c9e49c790f1df3dff29774f7bc6825853525f15a79f9046",
	"CGM/P":            "7953d05c52e71f48c194c86812d634a2e51a0e957a033e858d6906c710d871fc",
	"EMBAR/O":          "3c193066dbb20def25b42942721d02ceb53045e977c5553d0797e6a36c980efb",
	"EMBAR/P":          "dd2274d31809ba2681dea738c056ae87dfe4d06825e46aef4ee4352c07070612",
	"FFT/O":            "6e2645a67798e5480337595476175f0fa8804cf01be5a17a783355ea328685f9",
	"FFT/P":            "5244b0753e783c4fb6bfa430219b8f226013dcaca29d026016010174f9134332",
	"MGRID/O":          "5207b8472195c27f03b63067abbbde8f74aabc29c3775b9a0fe61d7a5f04199b",
	"MGRID/P":          "80aa2b756146f7526402a5f68c3490fad21dbd34a584b62ca1ac7ae9bb110e63",
	"axpy.loop/O":      "81b916b5af9475c2a3a68a65a97b21eff71f077be241aee37f27ff0539562788",
	"axpy.loop/P":      "2e8d994103c0d6075d7ec667c983d1b7973612a0e53b1a10044ef10dbcad3613",
	"histogram.loop/O": "2cb01df46dfae3e1f5a0130a1af82d5d20f3a7ae52d6549c20aebe756253cb42",
	"histogram.loop/P": "3c34db45cd70a9545add31b650def5a81cdbb30f051bb34f1a9ec520b6aca984",
	"matmul.loop/O":    "e7bd029b173547e233fe0b30fd14c70a98964c57e40d8df73b2aaa822159dab5",
	"matmul.loop/P":    "79417c1af339a9ceaae53ec894dd8483567c5671e4d25bfd2c34b974cdbea571",
	"reverse.loop/O":   "c5f895d81b61a340020968f7deb6a7ee605b85077e2b29d26478c6944360892b",
	"reverse.loop/P":   "7f2f56e20149516464b5a38072732c97cf87edcdae38c0d464988aa318cfa72e",
	"scan.loop/O":      "d52f443becc7fa2e31da8d0d281f12815096f7cf28a8aae14fb0e034ff8678a3",
	"scan.loop/P":      "5f84a44499b25a6483fa59a9bcf6e0d51cdee74fc0c1000842676140a6166e89",
}

// TestPrintPinned: the printed program — Figure 2 regenerated, and the
// text every site key and plan string is cut from — is byte-identical to
// what the fmt-based printer produced.
func TestPrintPinned(t *testing.T) {
	machine := hw.Default()
	got := map[string]string{}
	for name, build := range compileInputs(t) {
		prog := build()
		res, err := compiler.Compile(prog, machine, compiler.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for variant, p := range map[string]*ir.Program{"O": prog, "P": res.Prog} {
			sum := sha256.Sum256([]byte(ir.Print(p)))
			got[name+"/"+variant] = hex.EncodeToString(sum[:])
		}
	}
	names := make([]string, 0, len(got))
	for k := range got {
		names = append(names, k)
	}
	sort.Strings(names)
	if len(names) != len(printPins) {
		t.Errorf("%d programs printed, %d pinned", len(names), len(printPins))
	}
	for _, k := range names {
		if got[k] != printPins[k] {
			t.Errorf("%q: %q,", k, got[k])
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
