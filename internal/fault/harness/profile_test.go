package harness

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/golden"
	"repro/internal/hw"
	"repro/internal/nas"
	"repro/internal/profile"
)

// profileScale sizes the two-pass matrix: small enough to keep the
// 6-app × 4-mode × 3-tier sweep fast, large enough that every proxy
// actually pages (the machines are sized relative to the data).
const profileScale = 0.1

// profileRuns is one app's complete two-pass evidence: the plain
// original run, the recording pass, and the static vs profile-guided
// prefetching runs, with their fingerprints.
type profileRuns struct {
	orig, record, static, use     *core.Result
	origSum, recordSum, staticSum uint64
	useSum                        uint64
	prof                          *profile.Profile
}

// profCache amortizes the four runs per app across the property test
// and the coverage differential below (tests in this package run
// sequentially).
var profCache = map[string]*profileRuns{}

func profileRunsFor(t *testing.T, app *nas.App) *profileRuns {
	t.Helper()
	if r, ok := profCache[app.Name]; ok {
		return r
	}
	k, err := App(app, profileScale)
	if err != nil {
		t.Fatal(err)
	}

	ko := k
	ko.Cfg.Prefetch = false
	orig, origSum, err := Run(ko, nil)
	if err != nil {
		t.Fatal(err)
	}

	kr := k
	kr.Cfg.Profile = &core.ProfileSpec{Record: true}
	record, recordSum, err := Run(kr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if record.Profile == nil {
		t.Fatalf("%s: record run returned no profile", app.Name)
	}

	static, staticSum, err := Run(k, nil)
	if err != nil {
		t.Fatal(err)
	}

	ku := k
	ku.Cfg.Profile = &core.ProfileSpec{Use: record.Profile}
	use, useSum, err := Run(ku, nil)
	if err != nil {
		t.Fatal(err)
	}

	r := &profileRuns{
		orig: orig, record: record, static: static, use: use,
		origSum: origSum, recordSum: recordSum, staticSum: staticSum,
		useSum: useSum, prof: record.Profile,
	}
	profCache[app.Name] = r
	return r
}

// TestProfileModesByteIdentical is the two-pass property matrix: for
// every NAS proxy, the recording pass is tick- and byte-identical to a
// plain original run (observation costs nothing), and the static and
// profile-guided prefetching runs fingerprint identically to the
// original on every storage tier. The profile must also demonstrably
// steer the compiler on the indirect kernels — a profile that changes
// nothing proves nothing. (That the profile-guided program runs the same
// on the closure-tree oracle is internal/exec's
// TestProfileGuidedEquivalence.)
func TestProfileModesByteIdentical(t *testing.T) {
	apps := MatrixApps()
	if testing.Short() {
		apps = apps[:2]
	}
	for _, app := range append(apps, FlatApp()) {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			r := profileRunsFor(t, app)

			// Pass 1 is a pure observation of the original program.
			if r.recordSum != r.origSum {
				t.Fatalf("record run diverged from original: %#x vs %#x", r.recordSum, r.origSum)
			}
			if r.record.Elapsed != r.orig.Elapsed {
				t.Fatalf("record run not tick-identical to original: %v vs %v",
					r.record.Elapsed, r.orig.Elapsed)
			}

			// Pass 2 (and plain static prefetching) only move hints around.
			if r.staticSum != r.origSum {
				t.Fatalf("static prefetch diverged: %#x vs %#x", r.staticSum, r.origSum)
			}
			if r.useSum != r.origSum {
				t.Fatalf("profile-guided run diverged: %#x vs %#x", r.useSum, r.origSum)
			}
			// A same-program, same-geometry profile must match every site.
			if r.use.ProfileMismatches != 0 {
				t.Fatalf("self-recorded profile reported %d site mismatches", r.use.ProfileMismatches)
			}

			// The indirect kernels are where the profile has information
			// static analysis lacks; if it never changes a decision there,
			// the whole matrix is vacuous.
			if app.Name == "BUK" || app.Name == "CGM" || app.Name == "flat" {
				n := 0
				for _, e := range r.use.Plan {
					if e.Profiled {
						n++
					}
				}
				if n == 0 {
					t.Fatalf("profile changed no hint decisions on %s — vacuous pass", app.Name)
				}
			}
			// Self-relative stride hints are planted only from a profile,
			// and they must land: more faults found prefetched.
			if app.Name == "flat" && r.use.Mem.PrefetchedHits <= r.static.Mem.PrefetchedHits {
				t.Fatalf("profile-guided hits %d not above static %d",
					r.use.Mem.PrefetchedHits, r.static.Mem.PrefetchedHits)
			}

			// Same property with the storage tier swapped underneath,
			// static and profile-guided both (disk is the default above).
			if testing.Short() {
				return
			}
			k, err := App(app, profileScale)
			if err != nil {
				t.Fatal(err)
			}
			ku := k
			ku.Cfg.Profile = &core.ProfileSpec{Use: r.prof}
			for _, tier := range []hw.Tier{hw.TierNVMe, hw.TierFarMemory} {
				spec := core.BackendSpec{Tier: tier}
				if _, err := CheckBackendAgainst(k, spec, nil, r.orig, r.origSum); err != nil {
					t.Fatalf("static on %v: %v", tier, err)
				}
				if _, err := CheckBackendAgainst(ku, spec, nil, r.orig, r.origSum); err != nil {
					t.Fatalf("profile-guided on %v: %v", tier, err)
				}
			}
		})
	}
}

// TestProfileCoverageDifferential is the payoff side of the two-pass
// contract: on the indirect kernels (BUK's counting gather, CGM's
// sparse x[col[...]]) the profile-guided plan must cover strictly more
// faults than static analysis manages, and on the dense proxies — where
// static analysis already sees everything — the profile must never cost
// more than a 10% elapsed regression (in practice it binds to the same
// caps and is byte-identical in time too).
func TestProfileCoverageDifferential(t *testing.T) {
	apps := MatrixApps()
	if testing.Short() {
		apps = apps[:2]
	}
	for _, app := range apps {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			r := profileRunsFor(t, app)
			if app.Name == "BUK" || app.Name == "CGM" {
				if r.use.Mem.PrefetchedHits <= r.static.Mem.PrefetchedHits {
					t.Fatalf("profile-guided hits %d not above static %d",
						r.use.Mem.PrefetchedHits, r.static.Mem.PrefetchedHits)
				}
			}
			if limit := r.static.Elapsed + r.static.Elapsed/10; r.use.Elapsed > limit {
				t.Fatalf("profile-guided elapsed %v exceeds static %v by more than 10%%",
					r.use.Elapsed, r.static.Elapsed)
			}
		})
	}
}

// TestProfileRecordingPinnedArtifacts holds recording on the production
// executor to the artifacts the closure-tree recorder of commit 6b2edc2
// produced before recording moved onto kernel bytecode, byte for byte:
// testdata/artifacts.golden holds every NAS proxy's pass-1 artifact
// (profileScale, profileRunsFor's record run, profile.Marshal of the
// one-kernel set) a line a cell, so a drift in per-site counts, strides,
// fault classes, stall or inter-access ticks shows as the lines it moves.
// It also checks the recording run really is bytecode: every loop
// reports, none runs spans, and exactly the loops a plain compile runs as
// page-run loops were declined for recording.
func TestProfileRecordingPinnedArtifacts(t *testing.T) {
	artifacts := golden.Open(t, "testdata/artifacts.golden")
	defer artifacts.Close()
	for _, app := range nas.Apps() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			r := profileRunsFor(t, app)
			plain, rec := r.orig, r.record

			set := profile.NewSet()
			set.Add(r.prof)
			data, err := profile.Marshal(set)
			if err != nil {
				t.Fatal(err)
			}
			for i, line := range strings.Split(string(data), "\n") {
				artifacts.Check(t, fmt.Sprintf("%s/%04d", app.Name, i+1), line)
			}

			if len(rec.FastPath) == 0 || len(rec.FastPath) != len(plain.FastPath) {
				t.Fatalf("recording run reports %d loops, plain run %d", len(rec.FastPath), len(plain.FastPath))
			}
			declined := 0
			for i, r := range rec.FastPath {
				want := plain.FastPath[i].Reason
				if plain.FastPath[i].Driver == "page-run" {
					want = exec.ReasonRecording
					declined++
				}
				if r.Driver != "kernel" || r.Reason != want || r.Sites != 0 {
					t.Errorf("loop %d (%s): recording compile reports %s/%s with %d sites, want kernel/%s",
						i, r.Var, r.Driver, r.Reason, r.Sites, want)
				}
			}
			if declined == 0 {
				t.Error("the plain compile has no page-run loop to decline — the check is vacuous")
			}
		})
	}
}
