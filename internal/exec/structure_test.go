package exec_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/exec"
	"repro/internal/hw"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/nas"
	"repro/internal/profile"
)

// corpus returns a builder for every NAS proxy at scale and every example
// kernel, by name.
func corpus(t *testing.T, scale float64) map[string]func() *ir.Program {
	progs := map[string]func() *ir.Program{}
	for _, app := range nas.Apps() {
		progs[app.Name] = func() *ir.Program { return app.Build(scale) }
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

// TestCompileBuildsNoClosureTree is the structural half of "the bytecode
// compiler stands alone": for every NAS proxy and every example kernel, a
// default compile and a recording compile both yield kernel bytecode and
// never build the closure tree on the way.
func TestCompileBuildsNoClosureTree(t *testing.T) {
	progs := corpus(t, 0.05)
	ps := hw.Default().PageSize
	for name, build := range progs {
		for _, recording := range []bool{false, true} {
			prog := build()
			if err := prog.Resolve(ps); err != nil {
				t.Fatal(err)
			}
			var opts exec.Options
			if recording {
				opts.Profile = profile.NewRecorder(prog, ps)
			}
			art, err := exec.Compile(prog, ps, opts)
			if err != nil {
				t.Fatalf("%s (recording=%v): %v", name, recording, err)
			}
			if code, body := art.Forms(); !code || body {
				t.Errorf("%s (recording=%v): bytecode %v, closure tree %v", name, recording, code, body)
			}
		}
	}
}
