package compiler

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/profile"
)

// indirectProg builds the Figure-2 shape: s += a[b[i]], with a small
// enough target array that a cold-miss profile can justify a preload.
func indirectProg(n int64) *ir.Program {
	p := ir.NewProgram("gather")
	np := p.NewParam("n", n, true)
	a := p.NewArrayF("a", np)
	b := p.NewArrayI("b", np)
	s := p.NewScalarF("s")
	i := p.NewLoopVar("i")
	p.Body = []ir.Stmt{
		ir.For(i, ir.Int(0), np, 1,
			ir.SetF(s, ir.AddF(ir.FScalar{Slot: s.Slot, Name: "s"}, ir.LoadF(a, ir.LoadI(b, i)))),
		),
	}
	return p
}

// profFor fabricates a recorded profile for prog with the given stats
// applied to every site whose key contains match.
func profFor(t *testing.T, prog *ir.Program, pageSize int64, match string, stats profile.SiteProfile) *profile.Profile {
	t.Helper()
	p := &profile.Profile{Kernel: prog.Name, PageSize: pageSize}
	for _, s := range profile.SitesOf(prog) {
		sp := profile.SiteProfile{Key: s.Key, Count: 1}
		if strings.Contains(s.Key, match) {
			sp = stats
			sp.Key = s.Key
		}
		p.Sites = append(p.Sites, sp)
	}
	return p
}

func compileBoth(t *testing.T, build func() *ir.Program, prof *profile.Profile) (st, pr *Result) {
	t.Helper()
	mp := machine()
	var err error
	st, err = Compile(build(), mp, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Profile = prof
	pr, err = Compile(build(), mp, opts)
	if err != nil {
		t.Fatal(err)
	}
	return st, pr
}

// TestProfileNilBitIdentical: without a profile the compiler's output is
// bit-identical to what it was before the feature existed — the entire
// profile path must be inert when Options.Profile is nil.
func TestProfileNilBitIdentical(t *testing.T) {
	mp := machine()
	for _, build := range []func() *ir.Program{
		func() *ir.Program { return stream(256 * 512) },
		func() *ir.Program { return indirectProg(1 << 12) },
	} {
		a, err := Compile(build(), mp, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		b, err := Compile(build(), mp, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if ir.Print(a.Prog) != ir.Print(b.Prog) || a.PlanString() != b.PlanString() {
			t.Fatal("static compile is not deterministic")
		}
		if a.ProfileMismatches != 0 {
			t.Fatalf("static compile reports %d mismatches", a.ProfileMismatches)
		}
	}
}

// TestProfileObservedDistance: a dense stream whose observed latency is
// far below the static worst-case model gets the measured distance
// (times the contention headroom), not the model's.
func TestProfileObservedDistance(t *testing.T) {
	build := func() *ir.Program { return stream(256 * 512) }
	prog := build()
	mp := machine()
	if err := prog.Resolve(mp.PageSize); err != nil {
		t.Fatal(err)
	}
	prof := profFor(t, prog, mp.PageSize, "a[", profile.SiteProfile{
		Count: 256 * 512, Faults: 100, StallTicks: 100 * 1_000_000, // avg 1ms
		InterTicks: 1000 * 2000, InterN: 1000, // avg 2µs/iter
	})
	st, pr := compileBoth(t, build, prof)
	if pr.ProfileMismatches != 0 {
		t.Fatalf("mismatches: %d", pr.ProfileMismatches)
	}
	var se, pe *PlanEntry
	for i := range st.Plan {
		if st.Plan[i].Array == "a" {
			se = &st.Plan[i]
		}
	}
	for i := range pr.Plan {
		if pr.Plan[i].Array == "a" {
			pe = &pr.Plan[i]
		}
	}
	if se == nil || pe == nil {
		t.Fatal("stream plan entry missing")
	}
	if !pe.Profiled {
		t.Fatal("profile did not mark the dense entry")
	}
	// ceil(1ms / 2µs) = 500 iters, ×2 headroom = 1000, rounded up to the
	// 2048-iteration strip — versus the static model's cap-bound 4096.
	if pe.Dist != 2048 {
		t.Fatalf("profiled dist %d, want 2048", pe.Dist)
	}
	if se.Dist == pe.Dist {
		t.Fatal("profile changed nothing (vacuous test)")
	}
}

// TestProfileIndirectPreload: cold misses over a small indirect target
// (faults ≈ pages) trigger a whole-array preload before the nest, and
// the observed distance replaces the static one.
func TestProfileIndirectPreload(t *testing.T) {
	const n = 1 << 12 // a: 8 pages of float64
	build := func() *ir.Program { return indirectProg(n) }
	prog := build()
	mp := machine()
	if err := prog.Resolve(mp.PageSize); err != nil {
		t.Fatal(err)
	}
	prof := profFor(t, prog, mp.PageSize, "a[b[i]]", profile.SiteProfile{
		Count: n, Faults: 10, StallTicks: 10 * 1_000_000,
		InterTicks: 1000 * 2000, InterN: 1000,
	})
	st, pr := compileBoth(t, build, prof)
	if pr.ProfileMismatches != 0 {
		t.Fatalf("mismatches: %d", pr.ProfileMismatches)
	}
	var pe *PlanEntry
	for i := range pr.Plan {
		if pr.Plan[i].Array == "a" && pr.Plan[i].Kind.String() == "indirect" {
			pe = &pr.Plan[i]
		}
	}
	if pe == nil || !pe.Profiled {
		t.Fatalf("indirect entry not profiled: %+v", pr.Plan)
	}
	if pe.Dist != 1000 { // ceil(1ms/2µs) × 2
		t.Fatalf("indirect dist %d, want 1000", pe.Dist)
	}
	text := ir.Print(pr.Prog)
	if !strings.Contains(text, "&a[0], 8") {
		t.Fatalf("no 8-page preload of a in output:\n%s", text)
	}
	if strings.Contains(ir.Print(st.Prog), "&a[0], 8") {
		t.Fatal("static output contains the preload (vacuous test)")
	}
}

// TestProfileMismatchDegradesToStatic is the cross-kernel property: a
// profile recorded on a different program (or memory geometry) must
// leave the plan exactly static and be fully tallied as mismatches.
func TestProfileMismatchDegradesToStatic(t *testing.T) {
	build := func() *ir.Program { return indirectProg(1 << 12) }
	mp := machine()
	other := stream(256 * 512) // different kernel entirely
	if err := other.Resolve(mp.PageSize); err != nil {
		t.Fatal(err)
	}
	cases := map[string]*profile.Profile{
		"wrong kernel": profFor(t, other, mp.PageSize, "a[", profile.SiteProfile{
			Count: 10, Faults: 10, StallTicks: 1_000_000, InterTicks: 2000, InterN: 1,
		}),
		"wrong page size": func() *profile.Profile {
			prog := build()
			if err := prog.Resolve(mp.PageSize); err != nil {
				t.Fatal(err)
			}
			p := profFor(t, prog, mp.PageSize/2, "a[b[i]]", profile.SiteProfile{
				Count: 10, Faults: 10, StallTicks: 1_000_000, InterTicks: 2000, InterN: 1,
			})
			return p
		}(),
	}
	for name, prof := range cases {
		t.Run(name, func(t *testing.T) {
			st, pr := compileBoth(t, build, prof)
			if pr.ProfileMismatches == 0 {
				t.Fatal("mismatched profile reported zero mismatches")
			}
			if ir.Print(st.Prog) != ir.Print(pr.Prog) {
				t.Fatal("mismatched profile changed the emitted program")
			}
			if st.PlanString() != pr.PlanString() {
				t.Fatalf("mismatched profile changed the plan:\n%s\nvs\n%s", st.PlanString(), pr.PlanString())
			}
		})
	}
}

// flatSrc is the flattened sweep of benchmark/corpus/multinest.loop: the
// subscripts k / n and k % n are opaque to the locality analysis, so the
// static compiler concedes t and a to demand paging, yet at run time the
// references walk t forwards and a backwards, one element a step.
const flatSrc = `
program flat
param n = 320
array double a[n][n], t[n][n]
array double v[n * n]
for k = 0 .. n * n {
    v[k] = t[k / n][k % n] + a[(n * n - 1 - k) / n][(n * n - 1 - k) % n]
}
`

// TestProfileSelfRelativeStride: a reference static analysis cannot
// pipeline gets a self-relative hint — its own subscripts, the last one
// advanced by stride × distance — when the profile shows enough faults
// and one dominant run-time stride, and nothing otherwise.
func TestProfileSelfRelativeStride(t *testing.T) {
	build := func() *ir.Program {
		p, err := lang.Parse(flatSrc)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	prog := build()
	mp := machine()
	if err := prog.Resolve(mp.PageSize); err != nil {
		t.Fatal(err)
	}
	// 1 ms a miss over 2 µs an iteration: 500 iterations, doubled for
	// contention.
	stats := profile.SiteProfile{
		Count: 320 * 320, Faults: 200, StallTicks: 200 * 1_000_000,
		InterTicks: 1000 * 2000, InterN: 1000,
		Strides: []profile.StridePair{{Stride: 1, Count: 900}}, StrideOther: 100,
	}
	entry := func(r *Result, array string) PlanEntry {
		for _, e := range r.Plan {
			if e.Array == array {
				return e
			}
		}
		t.Fatalf("no plan entry for %s: %+v", array, r.Plan)
		return PlanEntry{}
	}
	// a's record: the same walk backwards, with a column-sized stride
	// whose lead the distance budget (8 pages of 512 elements) caps at 12.
	back := stats
	back.Strides = []profile.StridePair{{Stride: -320, Count: 900}}
	prof := profFor(t, prog, mp.PageSize, "t[", stats)
	for i := range prof.Sites {
		if strings.Contains(prof.Sites[i].Key, "a[") {
			back.Key = prof.Sites[i].Key
			prof.Sites[i] = back
		}
	}

	st, pr := compileBoth(t, build, prof)
	if pr.ProfileMismatches != 0 {
		t.Fatalf("mismatches: %d", pr.ProfileMismatches)
	}
	for _, array := range []string{"t", "a"} {
		if e := entry(st, array); e.Covered {
			t.Fatalf("static analysis covered %s (vacuous test): %+v", array, e)
		}
		if e := entry(pr, array); !e.Covered || !e.Profiled || e.Pipeline != "k" || e.Dist < 1 || e.Dist > 1000 || e.StripLen != 1 || e.Pages != 1 {
			t.Fatalf("%s not planned as a self-relative per-iteration stream: %+v", array, e)
		}
	}
	// The hint leads by the stride times the distance the plan reports —
	// the one the in-flight budget pass left (t's 1000 iterations and a's
	// 12 are both over the budget).
	text := ir.Print(pr.Prog)
	for _, hint := range []string{
		fmt.Sprintf("prefetch_block(&t[(k / n)][((k %% n) + %d)], 1)", 1*entry(pr, "t").Dist),
		fmt.Sprintf("[(((((n * n) - 1) - k) %% n) + %d)], 1)", -320*entry(pr, "a").Dist),
	} {
		if !strings.Contains(text, hint) {
			t.Fatalf("no %q in the output:\n%s", hint, text)
		}
	}
	if entry(pr, "t").Dist >= 1000 || entry(pr, "a").Dist >= 12 {
		t.Errorf("the budget pass left a lead as observed, so the hints cannot tell the two apart: %+v", pr.Plan)
	}

	few, scattered := stats, stats
	few.Faults = minStrideFaults - 1
	scattered.Strides, scattered.StrideOther = []profile.StridePair{{Stride: 1, Count: 700}}, 300
	for name, weak := range map[string]profile.SiteProfile{"too few faults": few, "no dominant stride": scattered} {
		_, pr := compileBoth(t, build, profFor(t, prog, mp.PageSize, "t[", weak))
		if e := entry(pr, "t"); e.Covered || ir.Print(pr.Prog) != ir.Print(st.Prog) {
			t.Errorf("%s: the compiler still hinted t: %+v", name, e)
		}
	}
}
