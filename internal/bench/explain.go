// ExplainFastPath: a diagnostic report of how the executor compiled each
// NAS proxy's loop nest — which loops got the page-run span driver, which
// run as linearized kernel bytecode, and why a loop fell back when it
// did. `oocbench -explain-fastpath` prints it so a silently-missed
// specialization is visible instead of just slow.
package bench

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/nas"
)

// ExplainFastPath runs every NAS proxy once at the given scale in the
// standard prefetching configuration and prints each loop's compiled
// driver and fallback reason.
func ExplainFastPath(w io.Writer, scale float64) error {
	for _, app := range nas.Apps() {
		cfg, _, err := ConfigFor(app, scale, 0)
		if err != nil {
			return fmt.Errorf("%s: %w", app.Name, err)
		}
		res, err := core.Run(app.Build(scale), cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", app.Name, err)
		}
		fmt.Fprintf(w, "%s:\n", app.Name)
		for _, r := range res.FastPath {
			fmt.Fprintf(w, "  %s\n", r)
		}
	}
	return nil
}
