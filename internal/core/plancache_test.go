package core

import (
	"testing"

	"repro/internal/compiler"
	"repro/internal/fault"
	"repro/internal/hw"
	"repro/internal/nas"
)

// planCacheCfg builds the standard prefetching configuration for one
// NAS proxy on one storage tier.
func planCacheCfg(t *testing.T, app *nas.App, tier hw.Tier, scale float64) Config {
	t.Helper()
	prog := app.Build(scale)
	ps := hw.DefaultTier(tier).PageSize
	if err := prog.Resolve(ps); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(MachineForTier(tier, nas.DataBytes(prog, ps), app.Ratio()))
	cfg.Seed = app.Seed
	return cfg
}

// TestPlanCacheHitTickIdentical is the property the compile-once cache
// stands on: a run that reuses a cached plan is indistinguishable —
// same scalars, same simulated time breakdown, same memory-manager
// event counts — from a cold compile of the same configuration. The
// matrix crosses the NAS proxies with the three storage tiers and
// rotates a fault profile through the cells; every cell is
// vacuity-guarded through Result.PlanCacheHit.
func TestPlanCacheHitTickIdentical(t *testing.T) {
	tiers := []hw.Tier{hw.TierDisk, hw.TierNVMe, hw.TierFarMemory}
	faultNames := []string{"", "flaky", "pressure"}
	for ai, app := range nas.Apps() {
		for ti, tier := range tiers {
			app, tier := app, tier
			// Rotate the fault profile so every profile meets every tier
			// across the matrix without tripling the run count.
			var prof *fault.Profile
			if name := faultNames[(ai+ti)%len(faultNames)]; name != "" {
				p, ok := fault.ProfileByName(name)
				if !ok {
					t.Fatalf("unknown fault profile %q", name)
				}
				prof = &p
			}
			t.Run(app.Name+"/"+tier.String(), func(t *testing.T) {
				cfg := planCacheCfg(t, app, tier, 0.05)
				cfg.Faults = prof

				// Two cold compiles of the same configuration, each into an
				// empty cache, then one reuse of the second.
				ResetPlanCache()
				cold, err := Run(app.Build(0.05), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if cold.PlanCacheHit {
					t.Fatal("run into an empty cache reports a hit")
				}
				ResetPlanCache()
				miss, err := Run(app.Build(0.05), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if miss.PlanCacheHit {
					t.Fatal("first cached run reports a hit — vacuous")
				}
				hit, err := Run(app.Build(0.05), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !hit.PlanCacheHit {
					t.Fatal("second cached run missed — vacuous")
				}

				// Rebuilding the app at the same scale must fingerprint
				// identically, or the cache could never have hit.
				fa, fb := app.Build(0.05), app.Build(0.05)
				if fa.Fingerprint() != fb.Fingerprint() {
					t.Fatal("same-scale rebuilds fingerprint differently")
				}

				for _, pair := range []struct {
					name string
					a, b *Result
				}{
					{"hit vs miss", hit, miss},
					{"hit vs cold", hit, cold},
				} {
					a, b := pair.a, pair.b
					if a.Elapsed != b.Elapsed {
						t.Errorf("%s: elapsed %d vs %d", pair.name, a.Elapsed, b.Elapsed)
					}
					if a.Times != b.Times {
						t.Errorf("%s: time breakdown diverged:\n%+v\n%+v", pair.name, a.Times, b.Times)
					}
					if a.Mem != b.Mem {
						t.Errorf("%s: vm stats diverged:\n%+v\n%+v", pair.name, a.Mem, b.Mem)
					}
					if a.Faults != b.Faults {
						t.Errorf("%s: fault counts diverged:\n%+v\n%+v", pair.name, a.Faults, b.Faults)
					}
					for i, x := range a.Env.Ints {
						if b.Env.Ints[i] != x {
							t.Errorf("%s: int slot %d: %d vs %d", pair.name, i, x, b.Env.Ints[i])
						}
					}
					for i, f := range a.Env.Floats {
						if b.Env.Floats[i] != f {
							t.Errorf("%s: float slot %d: %v vs %v", pair.name, i, f, b.Env.Floats[i])
						}
					}
				}
			})
		}
	}
}

// TestPlanCacheInvalidation: everything that can influence compilation
// must key a separate entry — a changed scale, tier, compiler option, or
// profile guide misses instead of reusing a stale plan — while a same-key
// rerun hits.
func TestPlanCacheInvalidation(t *testing.T) {
	app := nas.Apps()[0]
	ResetPlanCache()

	base := planCacheCfg(t, app, hw.TierDisk, 0.05)
	run := func(cfg Config, scale float64) *Result {
		t.Helper()
		res, err := Run(app.Build(scale), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	if res := run(base, 0.05); res.PlanCacheHit {
		t.Fatal("empty cache hit")
	}
	if res := run(base, 0.05); !res.PlanCacheHit {
		t.Fatal("identical rerun missed")
	}

	// A different problem size changes the program fingerprint.
	scaled := planCacheCfg(t, app, hw.TierDisk, 0.06)
	if res := run(scaled, 0.06); res.PlanCacheHit {
		t.Error("changed scale hit a stale plan")
	}
	// A different storage tier changes the machine key.
	if res := run(planCacheCfg(t, app, hw.TierNVMe, 0.05), 0.05); res.PlanCacheHit {
		t.Error("changed tier hit a stale plan")
	}
	// A plan-affecting compiler option.
	opts := compiler.DefaultOptions()
	opts.PagesPerFetch = 8
	tuned := base
	tuned.Options = &opts
	if res := run(tuned, 0.05); res.PlanCacheHit {
		t.Error("changed compiler options hit a stale plan")
	}

	// Profile-guided compiles key on the guide's content fingerprint,
	// and recording runs bypass the cache outright.
	hits, misses, entries := PlanCacheStats()
	recCfg := base
	recCfg.Prefetch = false
	recCfg.Profile = &ProfileSpec{Record: true}
	rec := run(recCfg, 0.05)
	if rec.PlanCacheHit {
		t.Error("recording run reports a cache hit")
	}
	if rec.Profile == nil {
		t.Fatal("recording run produced no profile")
	}
	if h2, m2, e2 := PlanCacheStats(); h2 != hits || m2 != misses || e2 != entries {
		t.Errorf("recording run touched the cache: %d/%d/%d -> %d/%d/%d",
			hits, misses, entries, h2, m2, e2)
	}
	guided := base
	guided.Profile = &ProfileSpec{Use: rec.Profile}
	if res := run(guided, 0.05); res.PlanCacheHit {
		t.Error("profile-guided compile hit the unguided plan")
	}
	if res := run(guided, 0.05); !res.PlanCacheHit {
		t.Error("identical profile-guided rerun missed")
	}

	// The counters and entry count reflect exactly the story above.
	hits, misses, entries = PlanCacheStats()
	if hits != 2 || misses != 5 || entries != 5 {
		t.Errorf("PlanCacheStats = %d hits, %d misses, %d entries; want 2/5/5", hits, misses, entries)
	}
	ResetPlanCache()
	if h, m, e := PlanCacheStats(); h != 0 || m != 0 || e != 0 {
		t.Errorf("ResetPlanCache left %d/%d/%d", h, m, e)
	}
}
