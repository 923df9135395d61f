package bench

import (
	"fmt"
	"io"

	"repro/internal/hw"
	"repro/internal/nas"
)

// Table1 prints the experimental platform characteristics (the paper's
// Table 1, reconstructed — see DESIGN.md §6).
func Table1(w io.Writer, p hw.Params) {
	fmt.Fprintln(w, "Table 1: Experimental platform characteristics (reconstructed)")
	fmt.Fprintln(w, "---------------------------------------------------------------")
	rows := []struct {
		k, v string
	}{
		{"page size", fmt.Sprintf("%d B", p.PageSize)},
		{"memory available to application", fmt.Sprintf("%.1f MB", float64(p.MemoryBytes)/(1<<20))},
		{"page frames", fmt.Sprintf("%d", p.Frames())},
		{"disks (round-robin page striping)", fmt.Sprintf("%d", p.NumDisks)},
		{"disk seek (min/max)", fmt.Sprintf("%v / %v", p.SeekMin, p.SeekMax)},
		{"disk rotation", p.RotationTime.String()},
		{"media transfer per page", p.TransferPerPage.String()},
		{"uncontended one-page read", p.AvgPageRead().String()},
		{"page-fault service (CPU)", p.FaultServiceTime.String()},
		{"reclaim (minor) fault", p.MinorFaultTime.String()},
		{"prefetch/release system call", p.PrefetchSyscallTime.String()},
		{"run-time layer check per page", p.FilterCheckTime.String()},
		{"machine operation", p.OpTime.String()},
	}
	for _, r := range rows {
		fmt.Fprintf(w, "  %-36s %s\n", r.k, r.v)
	}
}

// Table2 prints the application descriptions and standard out-of-core
// data-set sizes (the paper's Table 2).
func Table2(w io.Writer, scale float64) {
	fmt.Fprintln(w, "Table 2: Applications and data sets")
	fmt.Fprintln(w, "-----------------------------------")
	for _, app := range nas.Apps() {
		_, data, err := ConfigFor(app, scale, 0)
		if err != nil {
			fmt.Fprintf(w, "  %-6s <error: %v>\n", app.Name, err)
			continue
		}
		mem := float64(data) / app.Ratio()
		fmt.Fprintf(w, "  %-6s %5.1f MB data, %4.1f MB memory (%.1fx)  %s\n",
			app.Name, float64(data)/(1<<20), mem/(1<<20), app.Ratio(), app.Desc)
	}
}

// Table3 prints memory sub-system activity and free memory (the paper's
// Table 3) from a completed suite run.
func Table3(w io.Writer, rs []*AppResult) {
	fmt.Fprintln(w, "Table 3: Memory sub-system activity and free memory (prefetching runs)")
	fmt.Fprintln(w, "------------------------------------------------------------------------")
	fmt.Fprintf(w, "  %-6s %10s %10s %10s %10s %9s\n",
		"app", "faults", "reclaims", "writebacks", "releases", "mem-free")
	for _, r := range rs {
		fmt.Fprintf(w, "  %-6s %10d %10d %10d %10d %8.0f%%\n",
			r.Name, r.P.Mem.MajorFaults, r.P.Mem.Reclaims, r.P.Mem.Writebacks,
			r.P.Mem.ReleasedPages, r.P.AvgFree*100)
	}
	fmt.Fprintln(w, "  (paper shape: only the streaming applications BUK and EMBAR issue")
	fmt.Fprintln(w, "   significant releases, and they keep a large fraction of memory free)")
}
