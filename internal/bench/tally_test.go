//go:build exectally

package bench

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/golden"
	"repro/internal/nas"
)

// TestDispatchCorpus is the deterministic judge of the executor's host
// work: it runs the 16 scale-1 corpus runs one at a time, prints each
// run's dispatches, lane-wise iterations and top opcodes, and holds the
// bytecode dispatches of each NAS proxy's run at scale 1 and its standard
// ratio, O and P, to testdata/dispatch.golden (`make tally`). Counts
// repeat exactly: a change here is a change in how the executor runs the
// corpus (EXPERIMENTS.md).
func TestDispatchCorpus(t *testing.T) {
	rec := golden.Open(t, "testdata/dispatch.golden")
	defer rec.Close()
	var corpus int64
	for _, app := range nas.Apps() {
		for v, prefetch := range []bool{false, true} {
			cfg, _, err := ConfigFor(app, 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Prefetch = prefetch
			exec.ResetTally()
			res, err := core.Run(app.Build(1), cfg)
			if err != nil {
				t.Fatalf("%s: %v", app.Name, err)
			}
			byOp, total, lanes := exec.Tally()
			corpus += total
			ops := make([]string, 0, len(byOp))
			for op := range byOp {
				ops = append(ops, op)
			}
			slices.SortFunc(ops, func(a, b string) int { return cmp.Or(cmp.Compare(byOp[b], byOp[a]), strings.Compare(a, b)) })
			top := ""
			for _, op := range ops[:min(6, len(ops))] {
				top += fmt.Sprintf(" %s %.1f%%", op, 100*float64(byOp[op])/float64(total))
			}
			t.Logf("%s/%s: %d dispatches, %d lane iterations, elapsed %d;%s", app.Name, "OP"[v:v+1], total, lanes, res.Elapsed, top)
			rec.Check(t, app.Name+"/"+"OP"[v:v+1], total)
		}
	}
	t.Logf("corpus: %d dispatches", corpus)
}
