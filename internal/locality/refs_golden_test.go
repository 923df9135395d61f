package locality_test

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/golden"
	"repro/internal/hw"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/locality"
	"repro/internal/nas"
)

// TestRefsGolden holds the analysis's answer for every reference of the 8
// NAS proxies' original programs at scale 0.25 and of the example kernels,
// default page size and trip estimate, to testdata/refs.golden: its kind,
// its non-zero coefficients sorted by slot (named by the loop variable),
// its constant, its indirect driving loops sorted by slot, and the leader and trailer of
// its group as indices into Refs.
func TestRefsGolden(t *testing.T) {
	rec := golden.Open(t, "testdata/refs.golden")
	defer rec.Close()
	ps := hw.Default().PageSize
	progs := map[string]*ir.Program{}
	for _, app := range nas.Apps() {
		progs[app.Name] = app.Build(0.25)
	}
	files, err := filepath.Glob("../../examples/kernels/*.loop")
	if err != nil || len(files) != 5 {
		t.Fatalf("example kernel corpus: %d files, err %v", len(files), err)
	}
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if progs[filepath.Base(path)], err = lang.Parse(string(src)); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
	for name, p := range progs {
		if err := p.Resolve(ps); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		an := locality.Analyze(p, ps, 0)
		index := map[*locality.Ref]int{}
		for i := range an.Refs {
			index[&an.Refs[i]] = i
		}
		leader, trailer := make([]int, len(an.Refs)), make([]int, len(an.Refs))
		for _, g := range an.Groups {
			for _, m := range g.Members {
				leader[index[m]], trailer[index[m]] = index[g.Leader], index[g.Trailer]
			}
		}
		for i, r := range an.Refs {
			var coeffs, ind []string
			path := slices.Clone(r.Path)
			slices.SortFunc(path, func(a, b *ir.Loop) int { return a.Slot - b.Slot })
			for _, l := range path {
				if c := r.Coeff(l.Slot); c != 0 {
					coeffs = append(coeffs, fmt.Sprintf("%s:%d", l.Var, c))
				}
			}
			if len(coeffs) != len(r.Terms) {
				t.Fatalf("%s: ref %d has a coefficient off its loop path: %v", name, i, r.Terms)
			}
			for _, l := range path {
				if slices.Contains(r.IndirectSlots, l.Slot) {
					ind = append(ind, l.Var)
				}
			}
			if len(ind) != len(r.IndirectSlots) {
				t.Fatalf("%s: ref %d has an indirect slot off its loop path: %v", name, i, r.IndirectSlots)
			}
			rec.Check(t, fmt.Sprintf("%s/%03d", name, i),
				fmt.Sprintf("Kind=%s Coeffs=[%s] Const=%d Indirect=[%s] Leader=%d Trailer=%d",
					r.Kind, strings.Join(coeffs, " "), r.Const, strings.Join(ind, " "), leader[i], trailer[i]))
		}
	}
}
