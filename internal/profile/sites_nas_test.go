package profile_test

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/locality"
	"repro/internal/nas"
	"repro/internal/profile"
)

// TestSitesAlignWithLocality is the invariant the whole mode stands on:
// the canonical enumeration and the locality analysis both collect
// their references with ir.WalkRefs, one entry per visit, so site i
// corresponds to Refs[i].
func TestSitesAlignWithLocality(t *testing.T) {
	ps := hw.Default().PageSize
	for _, app := range nas.Apps() {
		t.Run(app.Name, func(t *testing.T) {
			prog := app.Build(0.05)
			if err := prog.Resolve(ps); err != nil {
				t.Fatal(err)
			}
			sites := profile.SitesOf(prog)
			an := locality.Analyze(prog, ps, 0)
			if len(sites) != len(an.Refs) {
				t.Fatalf("%d sites vs %d locality refs", len(sites), len(an.Refs))
			}
			seen := map[string]bool{}
			for i, s := range sites {
				r := an.Refs[i]
				if s.Arr != r.Arr || s.Write != r.IsWrite || len(s.Idx) != len(r.Idx) {
					t.Fatalf("site %d (%s) does not match ref %d (%s)", i, s.Key, i, r.Arr.Name)
				}
				if len(s.Idx) > 0 && &s.Idx[0] != &r.Idx[0] {
					t.Fatalf("site %d (%s): subscript identity mismatch", i, s.Key)
				}
				if s.ID != i {
					t.Fatalf("site %d carries ID %d", i, s.ID)
				}
				if seen[s.Key] {
					t.Fatalf("duplicate site key %q", s.Key)
				}
				seen[s.Key] = true
			}
		})
	}
}

// TestSiteKeysScaleIndependent: the same app built at different scales
// must produce identical keys, or a profile recorded at one problem size
// could not guide a compile at another.
func TestSiteKeysScaleIndependent(t *testing.T) {
	ps := hw.Default().PageSize
	for _, app := range nas.Apps() {
		small, big := app.Build(0.05), app.Build(0.2)
		if err := small.Resolve(ps); err != nil {
			t.Fatal(err)
		}
		if err := big.Resolve(ps); err != nil {
			t.Fatal(err)
		}
		a, b := profile.SitesOf(small), profile.SitesOf(big)
		if len(a) != len(b) {
			t.Fatalf("%s: %d sites at 0.05 vs %d at 0.2", app.Name, len(a), len(b))
		}
		for i := range a {
			if a[i].Key != b[i].Key {
				t.Fatalf("%s site %d: key %q at 0.05 vs %q at 0.2", app.Name, i, a[i].Key, b[i].Key)
			}
		}
	}
}
