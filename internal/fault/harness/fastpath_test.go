package harness

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/hw"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/nas"
)

// checkSameSimulation asserts that two runs of the same kernel are the
// same simulation down to the last tick: identical output fingerprint,
// elapsed time, time breakdown, memory-manager event counts, run-time
// layer counters, and injected-fault tallies. This is the executor
// fast path's contract — page-run specialization removes host-side
// interpretation overhead and nothing else.
func checkSameSimulation(t *testing.T, name string,
	fast *core.Result, fastSum uint64, slow *core.Result, slowSum uint64) {
	t.Helper()
	if fastSum != slowSum {
		t.Errorf("%s: output fingerprint diverged: fast %#x, slow %#x", name, fastSum, slowSum)
	}
	if fast.Elapsed != slow.Elapsed {
		t.Errorf("%s: elapsed diverged: fast %v, slow %v", name, fast.Elapsed, slow.Elapsed)
	}
	if fast.Times != slow.Times {
		t.Errorf("%s: time breakdown diverged:\nfast %+v\nslow %+v", name, fast.Times, slow.Times)
	}
	if fast.Mem != slow.Mem {
		t.Errorf("%s: vm stats diverged:\nfast %+v\nslow %+v", name, fast.Mem, slow.Mem)
	}
	if fast.RT != slow.RT {
		t.Errorf("%s: rt stats diverged:\nfast %+v\nslow %+v", name, fast.RT, slow.RT)
	}
	if fast.Faults != slow.Faults {
		t.Errorf("%s: fault injection diverged:\nfast %+v\nslow %+v", name, fast.Faults, slow.Faults)
	}
}

// runBoth executes the kernel with the page-run fast path on (the
// default) and off, under the same profile, and checks equivalence.
func runBoth(t *testing.T, k Kernel, prof *fault.Profile) {
	t.Helper()
	runBothOn(t, k, nil, prof)
}

// runBothOn is runBoth on an explicit storage backend (nil = the
// kernel's own machine): the executor's compiled drivers must be
// tick-identical to the oracle on every tier, not just the disk array.
func runBothOn(t *testing.T, k Kernel, spec *core.BackendSpec, prof *fault.Profile) {
	t.Helper()
	fastK := k
	fastK.Cfg.NoFastPath = false
	fast, fastSum, err := RunBackend(fastK, spec, prof)
	if err != nil {
		t.Fatal(err)
	}
	slowK := k
	slowK.Cfg.NoFastPath = true
	slow, slowSum, err := RunBackend(slowK, spec, prof)
	if err != nil {
		t.Fatal(err)
	}
	name := k.Name
	if spec != nil {
		name += "@" + spec.Tier.String()
	}
	if prof != nil {
		name += "/" + prof.Name
	}
	checkSameSimulation(t, name, fast, fastSum, slow, slowSum)
}

// TestFastPathEquivalenceNAS is the differential property of ISSUE 5,
// widened across storage tiers: for every NAS proxy in the matrix, a
// run with the compiled drivers must be tick-identical to a run on the
// closure oracle — fault-free and under every seeded fault profile, on
// the disk array, NVMe, and far memory alike.
func TestFastPathEquivalenceNAS(t *testing.T) {
	apps := matrixApps()
	profiles := matrixProfiles
	tiers := []string{"", "nvme", "farmem"}
	if testing.Short() {
		apps = apps[:2]
		profiles = []string{"chaos"}
		tiers = []string{""}
	}
	for ai, app := range apps {
		app := app
		ai := ai
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
					spec = &s
					label = tier
				}
				t.Run(label, func(t *testing.T) {
					t.Run("clean", func(t *testing.T) { runBothOn(t, k, spec, nil) })
					for pi, name := range profiles {
						p, ok := fault.ProfileByName(name)
						if !ok {
							t.Fatalf("unknown profile %q", name)
						}
						p.Seed = uint64(31 + 100*ai + pi) // same family, fresh seeds
						prof := p
						t.Run(name, func(t *testing.T) { runBothOn(t, k, spec, &prof) })
					}
				})
			}
		})
	}
}

// TestFastPathEquivalenceExamples covers the examples corpus: every
// kernel, fault-free and under the chaos profile, fast on vs off.
func TestFastPathEquivalenceExamples(t *testing.T) {
	if testing.Short() {
		t.Skip("example corpus covered at full length only")
	}
	files, err := filepath.Glob("../../../examples/kernels/*.loop")
	if err != nil || len(files) == 0 {
		t.Fatalf("no kernel corpus found: %v", err)
	}
	for fi, path := range files {
		path := path
		fi := fi
		t.Run(filepath.Base(path), func(t *testing.T) {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			build := func() *ir.Program {
				p, err := lang.Parse(string(src))
				if err != nil {
					t.Fatalf("parse: %v", err)
				}
				return p
			}
			prog := build()
			ps := hw.Default().PageSize
			if err := prog.Resolve(ps); err != nil {
				t.Fatal(err)
			}
			cfg := core.DefaultConfig(core.MachineFor(nas.DataBytes(prog, ps), 2))
			cfg.Seed = exampleSeed
			k := Kernel{Name: filepath.Base(path), Build: build, Cfg: cfg}
			runBoth(t, k, nil)
			prof, _ := fault.ProfileByName("chaos")
			prof.Seed = uint64(61 + fi)
			runBoth(t, k, &prof)
		})
	}
}

// TestSpanUserOpsShare holds the page-run mechanism to having engaged, not
// merely compiled: the share of a run's simulated user time that spanChunk
// charged a chunk at a time (exec.span_user_ops × OpTime ÷ TimeStats.User).
// APPLU, APPSP and APPBT spend it in 5-component nests whose k loops
// absorb the component loops, so nearly all of it must arrive through
// chunks, original (O) and prefetching (P) build alike; MGRID and CGM
// never depended on absorption, and their counts are pinned to what the
// same tally read on the commit before absorption (where the three APP*
// proxies read 0).
func TestSpanUserOpsShare(t *testing.T) {
	if testing.Short() {
		t.Skip("runs five proxies twice at harness scale")
	}
	pinned := map[string][2]int64{ // O, P
		"MGRID": {10316308, 10315948}, // 0.997 / 0.996 of user time
		"CGM":   {294744, 294786},     // 0.038 / 0.020
	}
	for _, app := range nas.Apps() {
		pin, isPinned := pinned[app.Name]
		if !isPinned && app.Name != "APPLU" && app.Name != "APPSP" && app.Name != "APPBT" {
			continue
		}
		k, err := App(app, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		for i, variant := range []string{"O", "P"} {
			k.Cfg.Prefetch = variant == "P"
			res, _, err := Run(k, nil)
			if err != nil {
				t.Fatal(err)
			}
			ops := res.Metrics.Counter("exec.span_user_ops").Value()
			if ops != res.Env.Span.UserOps || res.Metrics.Counter("exec.span_chunks").Value() != res.Env.Span.Chunks {
				t.Errorf("%s/%s: registry and Env disagree: %d vs %+v", app.Name, variant, ops, res.Env.Span)
			}
			share := float64(ops) * float64(k.Cfg.Machine.OpTime) / float64(res.Times.User)
			t.Logf("%s/%s: span_user_ops %d, share of user time %.3f, %+v", app.Name, variant, ops, share, res.Env.Span)
			switch {
			case isPinned && ops != pin[i]:
				t.Errorf("%s/%s: exec.span_user_ops = %d, pinned %d", app.Name, variant, ops, pin[i])
			case !isPinned && share < 0.8:
				t.Errorf("%s/%s: %.3f of user time went through chunks, want ≥ 0.8", app.Name, variant, share)
			}
		}
	}
}
