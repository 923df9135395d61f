package harness

import (
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/golden"
	"repro/internal/sim"
)

// The closure-tree oracle lives in internal/exec's tests, whose
// differentials of the same names as the two tests below run it and the
// bytecode over the same cells and write its simulation of each cell, as a
// digest, to testdata/oracle_nas.golden and oracle_examples.golden.

// digest prints everything two runs of one cell must share to be the same
// simulation as a record's fields, then those of the structs in more: the
// output fingerprint, elapsed time, time breakdown, memory-manager and
// run-time layer counts, injected faults. exec's differentials print the
// oracle's runs the same way.
func digest(res *core.Result, sum uint64, more ...any) string {
	run := struct {
		Fingerprint uint64
		Elapsed     sim.Time
	}{sum, res.Elapsed}
	return golden.Fields(append([]any{run, res.Times, res.Mem, res.RT, res.Faults}, more...)...)
}

// sameAsOracle runs one cell through core.Run — the bytecode, compiled
// and bound the one way core has — and holds it to the simulation the
// oracle recorded for that cell, down to the last tick.
func sameAsOracle(t *testing.T, rec *golden.Record, cell string, k Kernel, spec *core.BackendSpec, prof *fault.Profile) {
	t.Helper()
	res, sum, err := RunBackend(k, spec, prof)
	if err != nil {
		t.Fatal(err)
	}
	rec.Check(t, cell, digest(res, sum))
}

// TestFastPathEquivalenceNAS: for every NAS proxy of the property matrix,
// a run on the bytecode is tick-identical to the oracle's run — fault-free
// and under every seeded fault profile, on the disk array, NVMe and far
// memory alike.
func TestFastPathEquivalenceNAS(t *testing.T) {
	rec := golden.Read(t, "testdata/oracle_nas.golden")
	defer rec.Close()
	apps := MatrixApps()
	tiers := []string{"", "nvme", "farmem"}
	if testing.Short() {
		apps = apps[:2]
		tiers = []string{""}
	}
	for ai, app := range apps {
		t.Run(app.Name, func(t *testing.T) {
			k, err := App(app, 0.25)
			if err != nil {
				t.Fatal(err)
			}
			for _, tier := range tiers {
				var spec *core.BackendSpec
				label := "disk"
				if tier != "" {
					s, err := core.ParseBackendSpec(tier)
					if err != nil {
						t.Fatal(err)
					}
					spec, label = &s, tier
				}
				cell := app.Name + "/" + label + "/"
				t.Run(label, func(t *testing.T) {
					t.Run("clean", func(t *testing.T) { sameAsOracle(t, rec, cell+"clean", k, spec, nil) })
					for pi, name := range MatrixProfiles {
						if testing.Short() && name != "chaos" {
							continue // at its full-length seed: a cell the record holds
						}
						p, ok := fault.ProfileByName(name)
						if !ok {
							t.Fatalf("unknown profile %q", name)
						}
						p.Seed = uint64(31 + 100*ai + pi) // same family, fresh seeds
						t.Run(name, func(t *testing.T) { sameAsOracle(t, rec, cell+name, k, spec, &p) })
					}
				})
			}
		})
	}
}

// TestFastPathEquivalenceExamples covers the examples corpus: every
// kernel, fault-free and under the chaos profile, bytecode vs oracle.
func TestFastPathEquivalenceExamples(t *testing.T) {
	if testing.Short() {
		t.Skip("example corpus covered at full length only")
	}
	rec := golden.Read(t, "testdata/oracle_examples.golden")
	defer rec.Close()
	files, err := filepath.Glob("../../../examples/kernels/*.loop")
	if err != nil || len(files) == 0 {
		t.Fatalf("no kernel corpus found: %v", err)
	}
	for fi, path := range files {
		t.Run(filepath.Base(path), func(t *testing.T) {
			k, err := Example(path)
			if err != nil {
				t.Fatal(err)
			}
			sameAsOracle(t, rec, k.Name+"/clean", k, nil, nil)
			prof, _ := fault.ProfileByName("chaos")
			prof.Seed = uint64(61 + fi)
			sameAsOracle(t, rec, k.Name+"/chaos", k, nil, &prof)
		})
	}
}
