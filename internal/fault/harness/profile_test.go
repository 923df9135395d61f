package harness

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/hw"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/nas"
	"repro/internal/profile"
	"repro/internal/vm"
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

// flatApp is the one shape no NAS proxy has: a flattened sweep whose
// subscripts (k / n, k % n) are opaque to the locality analysis but walk
// the arrays with a dominant run-time stride, so only a profile can hint
// them (compiler.strideJob; benchmark/corpus/multinest.loop takes the
// same path under oocbench -profile-use).
func flatApp() *nas.App {
	const src = `
program flat
param n = 320
array double a[n][n], t[n][n]
array double v[n * n]
for i = 0 .. n {
    for j = 0 .. n {
        a[i][j] = 1.0 * i - 0.5 * j
        t[i][j] = 0.25 * j
    }
}
for k = 0 .. n * n {
    v[k] = t[k / n][k % n] + a[(n * n - 1 - k) / n][(n * n - 1 - k) % n]
}
`
	return &nas.App{
		Name:  "flat",
		Build: func(float64) *ir.Program { return lang.MustParse(src) },
		Check: func(*ir.Program, *vm.VM, *exec.Env) error { return nil },
	}
}

// TestProfileModesByteIdentical is the two-pass property matrix: for
// every NAS proxy, the recording pass is tick- and byte-identical to a
// plain original run (observation costs nothing), and the static and
// profile-guided prefetching runs fingerprint identically to the
// original on every storage tier. The profile must also demonstrably
// steer the compiler on the indirect kernels, and the profile-guided
// program must survive the fast-path differential oracle — a profile
// that changes nothing, or that only works on one execution engine,
// proves nothing.
func TestProfileModesByteIdentical(t *testing.T) {
	apps := matrixApps()
	if testing.Short() {
		apps = apps[:2]
	}
	for _, app := range append(apps, flatApp()) {
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

			// The profile-guided program must be engine-independent:
			// the bytecode fast path and the closure-tree oracle agree
			// tick for tick.
			k, err := App(app, profileScale)
			if err != nil {
				t.Fatal(err)
			}
			kd := k
			kd.Cfg.Profile = &core.ProfileSpec{Use: r.prof}
			kd.Cfg.NoFastPath = true
			slow, slowSum, err := Run(kd, nil)
			if err != nil {
				t.Fatal(err)
			}
			if slowSum != r.useSum || slow.Elapsed != r.use.Elapsed {
				t.Fatalf("profile-guided run differs under NoFastPath: sum %#x vs %#x, elapsed %v vs %v",
					slowSum, r.useSum, slow.Elapsed, r.use.Elapsed)
			}

			// Same property with the storage tier swapped underneath,
			// static and profile-guided both (disk is the default above).
			if testing.Short() {
				return
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
	apps := matrixApps()
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

// recordedArtifactSHA256 pins the pass-1 artifact of every NAS proxy
// (profileScale, profileRunsFor's record run, profile.Marshal of the
// one-kernel set), captured from the closure-tree recorder of commit 6b2edc2 before
// recording moved onto kernel bytecode. Any drift in per-site counts,
// strides, fault classes, stall or inter-access ticks changes a hash.
var recordedArtifactSHA256 = map[string]string{
	"BUK":   "0ef4ecd92421cadbabb211d2c0fa418f766e71a466862e76cf14a3e428a4f73b",
	"CGM":   "8755d4e6298cf902451693ef9448fbce3364b1ae04ed65226588f907ef38623f",
	"EMBAR": "cd034990946fab756c9cb53b8417be6165b985dcd09c5bc94ec5fcc9b0ef9859",
	"FFT":   "c247a52d52167b6e4164418d79a9008f25485b43c24b6a4b09c5a6939b71adb4",
	"MGRID": "4f93995a389268bd0fec4edd2b05df0f2fa97ccb5e41463440870cd0435c2756",
	"APPLU": "8cf59e323454464d388dd176714a10cb6389b764835ced51f5bab463ed8bd6a2",
	"APPSP": "5b78d2124a781563f2d3d83c3984e5a7ae60849e1eb47655719cfe9ac32e8b4b",
	"APPBT": "c3a8f77618cd8127be6cc77fdc8e31e8cabe7e2bd8d84e1c0d4a24205e4c6d76",
}

// TestProfileRecordingPinnedArtifacts holds recording on the production
// executor to the artifacts the closure-tree recorder produced, byte for
// byte, and checks the recording run really is bytecode: every loop
// reports, none runs spans, and exactly the loops a plain compile runs as
// page-run loops were declined for recording.
func TestProfileRecordingPinnedArtifacts(t *testing.T) {
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
			if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != recordedArtifactSHA256[app.Name] {
				t.Errorf("artifact sha256 %s, pinned %s", got, recordedArtifactSHA256[app.Name])
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
