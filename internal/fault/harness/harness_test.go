package harness

import (
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/hw"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/nas"
)

// TestNASMatrixByteIdentical is the property matrix of ISSUE 4: each
// kernel runs fault-free once (the golden), then once per seeded
// profile; every faulted run must fingerprint identically to the
// golden, pass the app's reference check, and leave the VM invariants
// intact. The aggressive profiles must also demonstrably inject — a
// matrix that never fires proves nothing.
func TestNASMatrixByteIdentical(t *testing.T) {
	apps := MatrixApps()
	profiles := MatrixProfiles
	if testing.Short() {
		apps = apps[:2]
		profiles = []string{"flaky", "chaos"}
	}
	for ai, app := range apps {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			k, err := App(app, 0.25)
			if err != nil {
				t.Fatal(err)
			}
			clean, cleanSum, err := Run(k, nil)
			if err != nil {
				t.Fatal(err)
			}
			if n := clean.Faults.Total(); n != 0 {
				t.Fatalf("fault-free golden injected %d faults", n)
			}
			for pi, name := range profiles {
				prof, ok := fault.ProfileByName(name)
				if !ok {
					t.Fatalf("unknown profile %q", name)
				}
				prof.Seed = uint64(1 + 100*ai + pi)
				t.Run(name, func(t *testing.T) {
					rep, err := CheckAgainst(k, prof, clean, cleanSum)
					if err != nil {
						t.Fatal(err)
					}
					if rep.Faulted.Faults.Total() == 0 {
						t.Fatalf("profile %q seed %d injected nothing — vacuous pass", name, prof.Seed)
					}
				})
			}
		})
	}
}

// TestExampleKernelsByteIdentical runs every example kernel under the
// everything-at-once chaos profile and the brownout profile, asserting
// byte-identical output versus the fault-free run ("every example
// kernel and NAS proxy", acceptance criterion 3).
func TestExampleKernelsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("example corpus covered at full length only")
	}
	files, err := filepath.Glob("../../../examples/kernels/*.loop")
	if err != nil || len(files) == 0 {
		t.Fatalf("no kernel corpus found: %v", err)
	}
	for fi, path := range files {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			k, err := Example(path)
			if err != nil {
				t.Fatal(err)
			}
			clean, cleanSum, err := Run(k, nil)
			if err != nil {
				t.Fatal(err)
			}
			for pi, name := range []string{"chaos", "brownout"} {
				prof, _ := fault.ProfileByName(name)
				prof.Seed = uint64(1 + 10*fi + pi)
				if _, err := CheckAgainst(k, prof, clean, cleanSum); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestFingerprintSeesEveryWord guards the harness itself: a fingerprint
// that ignored part of the address space would pass divergent runs.
func TestFingerprintSeesEveryWord(t *testing.T) {
	src := `
program tiny
param n = 1 << 10
array double a[n]
for i = 0 .. n {
    a[i] = 1
}
`
	build := func() *ir.Program {
		p, err := lang.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	prog := build()
	ps := hw.Default().PageSize
	if err := prog.Resolve(ps); err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(core.MachineFor(nas.DataBytes(prog, ps), 2))
	k := Kernel{Name: "tiny", Build: build, Cfg: cfg}
	res, sum, err := Run(k, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one word anywhere in the space: the fingerprint must move.
	arr := res.Prog.Arrays[0]
	for _, i := range []int64{0, arr.Elems / 2, arr.Elems - 1} {
		res.VM.StoreF64(arr.Base+i*8, 42)
		if got := Fingerprint(res); got == sum {
			t.Fatalf("fingerprint blind to word %d", i)
		}
		res.VM.StoreF64(arr.Base+i*8, 1)
		if got := Fingerprint(res); got != sum {
			t.Fatalf("fingerprint not a pure function of contents at word %d", i)
		}
	}
}
