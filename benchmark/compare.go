package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// reportSet is the file `-all -out` writes: one report per workload.
type reportSet struct {
	Reports []*report `json:"reports"`
}

func loadSet(path string) (*reportSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s reportSet
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.Reports) == 0 {
		// A single workload's -out file is one report, not a set.
		var r report
		if err := json.Unmarshal(data, &r); err != nil || r.Workload == "" {
			return nil, fmt.Errorf("%s: neither a report set nor a report", path)
		}
		s.Reports = []*report{&r}
	}
	return &s, nil
}

func (s *reportSet) byWorkload(name string) *report {
	for _, r := range s.Reports {
		if r.Workload == name {
			return r
		}
	}
	return nil
}

// verdict judges one (workload, metric) pairing of a base run A and a
// changed run B by how much B lost against A as a share of A.
//
//   - ok: B is not worse than A by more than the bound.
//   - unresolved: B's median is worse by more than the bound, but the
//     run-to-run spread of either side exceeds the bound and the two
//     interquartile ranges overlap, so the runs cannot tell.
//   - regressed: worse by more than the bound, and the spread does not
//     explain it.
func verdict(d metricDef, a, b metricValue) string {
	if a.Value == 0 {
		if b.Value == 0 {
			return "ok"
		}
		return "regressed"
	}
	worse := (b.Value - a.Value) / math.Abs(a.Value)
	if d.Better == "higher" {
		worse = -worse
	}
	if worse <= d.Bound {
		return "ok"
	}
	if a.Samples != nil && b.Samples != nil {
		noisy := a.Samples.spread() > d.Bound || b.Samples.spread() > d.Bound
		overlap := a.Samples.Q1 <= b.Samples.Q3 && b.Samples.Q1 <= a.Samples.Q3
		if noisy && overlap {
			return "unresolved"
		}
	}
	return "regressed"
}

// compareSets prints one row per (workload, end-to-end metric) and
// reports whether B may land: no metric regressed, no workload failed
// more runs than in A. With exact set, metrics without samples (the
// simulated clock) must also be identical, which is what two runs of the
// same code at the same seed owe each other.
func compareSets(w io.Writer, a, b *reportSet, exact bool) bool {
	ok := true
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA (passes: median [q1, q3] n)\tB (passes: median [q1, q3] n)\tB vs A (base A)\tbound\tverdict")
	show := func(m metricValue) string {
		if m.Samples == nil {
			return fmt.Sprintf("%.6g (exact)", m.Value)
		}
		return fmt.Sprintf("%.6g (%.6g [%.6g, %.6g] n=%d)", m.Value, m.Samples.Median, m.Samples.Q1, m.Samples.Q3, m.Samples.N)
	}
	for _, def := range workloads {
		ra, rb := a.byWorkload(def.Name), b.byWorkload(def.Name)
		if ra == nil || rb == nil {
			continue
		}
		for _, d := range endToEnd {
			ma, mb := ra.Metrics[d.Name], rb.Metrics[d.Name]
			v := verdict(d, ma, mb)
			if exact && ma.Samples == nil && ma.Value != mb.Value {
				v = "regressed (must repeat exactly)"
			}
			if v != "ok" && v != "unresolved" {
				ok = false
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%+.2f%% of %.6g\t%.0f%%\t%s\n", def.Name, d.Name, d.Unit,
				show(ma), show(mb), 100*(mb.Value-ma.Value)/math.Abs(ma.Value), ma.Value, 100*d.Bound, v)
		}
		verdictFailed := "ok"
		if rb.Failed > ra.Failed {
			verdictFailed, ok = "regressed", false
		}
		fmt.Fprintf(tw, "%s\tfailed/attempted\truns\t%d/%d\t%d/%d\t\tmust not rise\t%s\n", def.Name,
			ra.Failed, ra.Attempted, rb.Failed, rb.Attempted, verdictFailed)
	}
	tw.Flush()
	return ok
}
