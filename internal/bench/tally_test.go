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
	"repro/internal/nas"
)

// dispatchPins are the bytecode dispatches of each NAS proxy's run at scale
// 1 and its standard ratio, O then P, under the dispatch tally. Counts
// repeat exactly: a change here is a change in how the executor runs the
// corpus (EXPERIMENTS.md).
var dispatchPins = map[string][2]int64{
	"BUK":   {10387723, 15126928},
	"CGM":   {2850640, 4042808},
	"EMBAR": {17407536, 17431092},
	"FFT":   {32668230, 33593498},
	"MGRID": {1057338, 1045564},
	"APPLU": {7741203, 7754479},
	"APPSP": {5530669, 5565968},
	"APPBT": {3695800, 3684599},
}

// TestDispatchCorpus is the deterministic judge of the executor's host
// work: it runs the 16 scale-1 corpus runs one at a time, prints each
// run's dispatches, lane-wise iterations and top opcodes, and holds the
// totals to dispatchPins (`make tally`).
func TestDispatchCorpus(t *testing.T) {
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
			if want := dispatchPins[app.Name][v]; total != want {
				t.Errorf("%s/%s: %d dispatches, pinned %d", app.Name, "OP"[v:v+1], total, want)
			}
		}
	}
	t.Logf("corpus: %d dispatches", corpus)
}
