package harness

import (
	"testing"

	"repro/internal/golden"
	"repro/internal/nas"
)

// TestSpanUserOpsShare holds the page-run mechanism to having engaged, not
// merely compiled: the share of a run's simulated user time that spanChunk
// charged a chunk at a time (exec.span_user_ops × OpTime ÷ TimeStats.User).
// APPLU, APPSP and APPBT spend it in 5-component nests whose k loops
// absorb the component loops, so nearly all of it must arrive through
// chunks, original (O) and prefetching (P) build alike; MGRID and CGM
// never depended on absorption, and their counts are held to what the
// same tally read on the commit before absorption (where the three APP*
// proxies read 0): testdata/span_user_ops.golden, recorded when MGRID's
// share was 0.997 (O) and 0.996 (P) of user time and CGM's 0.038 and 0.020.
func TestSpanUserOpsShare(t *testing.T) {
	if testing.Short() {
		t.Skip("runs five proxies twice at harness scale")
	}
	rec := golden.Open(t, "testdata/span_user_ops.golden")
	defer rec.Close()
	for _, app := range nas.Apps() {
		isPinned := app.Name == "MGRID" || app.Name == "CGM"
		if !isPinned && app.Name != "APPLU" && app.Name != "APPSP" && app.Name != "APPBT" {
			continue
		}
		k, err := App(app, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		for _, variant := range []string{"O", "P"} {
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
			case isPinned:
				rec.Check(t, app.Name+"/"+variant, ops)
			case share < 0.8:
				t.Errorf("%s/%s: %.3f of user time went through chunks, want ≥ 0.8", app.Name, variant, share)
			}
		}
	}
}
