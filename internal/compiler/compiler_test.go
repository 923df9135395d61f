package compiler

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/hw"
	"repro/internal/ir"
	"repro/internal/rt"
	"repro/internal/sim"
	"repro/internal/stripefs"
	"repro/internal/vm"
)

// machine returns a small test platform: 64 frames.
func machine() hw.Params {
	p := hw.Default()
	p.MemoryBytes = 64 * p.PageSize
	return p
}

// stream builds a simple streaming sum over n float64s.
func stream(n int64) *ir.Program {
	p := ir.NewProgram("stream")
	np := p.NewParam("n", n, true)
	a := p.NewArrayF("a", np)
	s := p.NewScalarF("s")
	i := p.NewLoopVar("i")
	p.Body = []ir.Stmt{
		ir.For(i, ir.Int(0), np, 1,
			ir.SetF(s, ir.AddF(ir.FScalar{Slot: s.Slot, Name: "s"}, ir.LoadF(a, i))),
		),
	}
	return p
}

// run executes a program on a fresh system, returning the VM and the
// run-time layer for inspection.
func run(t *testing.T, prog *ir.Program, mp hw.Params, seedVal func(int64) float64, rtOn bool) (*vm.VM, *rt.Layer, *exec.Env) {
	t.Helper()
	c := sim.NewClock()
	fs := stripefs.New(c, mp, nil)
	if err := prog.Resolve(mp.PageSize); err != nil {
		t.Fatal(err)
	}
	file, err := fs.Create(prog.Name, prog.TotalBytes(mp.PageSize)/mp.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	v := vm.New(c, mp, file)
	layer := rt.Register(v, rtOn)
	m, err := exec.New(prog, v, layer)
	if err != nil {
		t.Fatal(err)
	}
	if seedVal != nil {
		exec.SeedF64(file, mp.PageSize, prog.Arrays[0], seedVal)
	}
	env := m.Run()
	v.Finish()
	return v, layer, env
}

func TestStreamCompilesAndWins(t *testing.T) {
	mp := machine()
	const n = 256 * 512 // 256 pages = 4× memory
	orig := stream(n)
	res, err := Compile(stream(n), mp, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	want := float64(n) * 0.5
	vO, _, envO := run(t, orig, mp, func(int64) float64 { return 0.5 }, true)
	vP, _, envP := run(t, res.Prog, mp, func(int64) float64 { return 0.5 }, true)

	// Semantics preserved.
	sO := envO.Floats[0]
	sP := envP.Floats[0]
	if sO != want || sP != want {
		t.Fatalf("sums: original %v, prefetch %v, want %v", sO, sP, want)
	}

	tO, tP := vO.Times().Total(), vP.Times().Total()
	if tP >= tO {
		t.Fatalf("prefetching did not win: O=%v P=%v", tO, tP)
	}
	// Most stall time should be gone on a pure stream.
	if vP.Times().Idle*2 > vO.Times().Idle {
		t.Fatalf("prefetching left too much stall: O idle %v, P idle %v",
			vO.Times().Idle, vP.Times().Idle)
	}
	// Coverage should be essentially total.
	if cov := vP.Stats().CoverageFactor(); cov < 0.95 {
		t.Fatalf("coverage %.3f, want ≥0.95", cov)
	}
}

func TestPlanShape(t *testing.T) {
	mp := machine()
	res, err := Compile(stream(256*512), mp, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Plan) != 1 {
		t.Fatalf("plan has %d entries, want 1: %v", len(res.Plan), res.Plan)
	}
	e := res.Plan[0]
	if !e.Covered || e.Pipeline != "i" {
		t.Fatalf("plan entry %+v, want covered at i", e)
	}
	// stride 8 B/iter, 4-page blocks → strip of 2048 iterations.
	if e.StripLen != 2048 || e.Pages != 4 {
		t.Fatalf("strip/pages = %d/%d, want 2048/4", e.StripLen, e.Pages)
	}
	if e.Dist%e.StripLen != 0 || e.Dist < e.StripLen {
		t.Fatalf("distance %d not a positive multiple of strip %d", e.Dist, e.StripLen)
	}
	if !e.Release {
		t.Fatal("4×-memory stream should get releases")
	}
	if !strings.Contains(res.PlanString(), "dense") {
		t.Fatal("PlanString missing kind")
	}
}

func TestTransformedShapeHasPrologAndStrips(t *testing.T) {
	mp := machine()
	res, err := Compile(stream(256*512), mp, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	out := ir.Print(res.Prog)
	if !strings.Contains(out, "prefetch_block(&a[min(0,") {
		t.Fatalf("no prolog block prefetch in:\n%s", out)
	}
	if !strings.Contains(out, "prefetch_release_block") {
		t.Fatalf("no bundled prefetch/release in:\n%s", out)
	}
	// Strip mining introduces a new loop variable i0.
	if !strings.Contains(out, "for (i0 = ") {
		t.Fatalf("no strip loop in:\n%s", out)
	}
	// The original program is untouched.
	var prefetches int
	ir.WalkStmts(stream(1).Body, func(s ir.Stmt) {
		switch s.(type) {
		case ir.Prefetch, ir.PrefetchRelease:
			prefetches++
		}
	})
	if prefetches != 0 {
		t.Fatal("original program contains prefetches")
	}
}

// aElems is the extent of the indirect target array in figure2 nests.
const aElems = 16 * 1024

// figure2 reconstructs the paper's Figure 2(a) loop nest, with rows rows
// in the c matrix (and in the b index array, which drives a[b[i]]).
func figure2(rows, nVal int64, nKnown bool) *ir.Program {
	p := ir.NewProgram("fig2")
	n := p.NewParam("N", nVal, nKnown)
	a := p.NewArrayF("a", ir.Int(aElems))
	b := p.NewArrayI("b", ir.Int(rows))
	cc := p.NewArrayF("c", ir.Int(rows), n)
	i := p.NewLoopVar("i")
	j := p.NewLoopVar("j")
	s := p.NewScalarF("t")
	p.Body = []ir.Stmt{
		ir.For(i, ir.Int(0), ir.Int(rows), 1,
			ir.For(j, ir.Int(0), n, 1,
				ir.SetF(s, ir.AddF(ir.FScalar{Slot: s.Slot, Name: "t"}, ir.LoadF(cc, i, j))),
			),
			ir.StoreF(a, []ir.IExpr{ir.LoadI(b, i)},
				ir.AddF(ir.LoadF(a, ir.LoadI(b, i)), ir.Flt(1))),
		),
	}
	return p
}

func TestFigure2DoubleStripMine(t *testing.T) {
	// b[i] (8 B/iter) and c[i][j] (512 B/iter of i) need different fetch
	// rates: the i loop must be strip-mined twice, as in Figure 2(b).
	mp := machine()
	res, err := Compile(figure2(20000, 64, true), mp, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	out := ir.Print(res.Prog)
	if !strings.Contains(out, "for (i0 = ") || !strings.Contains(out, "for (i1 = ") {
		t.Fatalf("expected two strip levels (i0, i1) in:\n%s", out)
	}
	// The indirect a[b[i]] reference is prefetched per iteration with the
	// subscript's i advanced by the distance.
	if !strings.Contains(out, "prefetch_block(&a[b[min(") {
		t.Fatalf("no indirect prefetch a[b[...]] in:\n%s", out)
	}
}

func TestFigure2Runs(t *testing.T) {
	mp := machine()
	const rows, nVal = 20000, 64
	prog := figure2(rows, nVal, true)
	res, err := Compile(figure2(rows, nVal, true), mp, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	seed := func(file *stripefs.File, p *ir.Program) {
		exec.SeedI64(file, mp.PageSize, p.Arrays[1], func(i int64) int64 { return (i * 37) % aElems })
		exec.SeedF64(file, mp.PageSize, p.Arrays[2], func(i int64) float64 { return 1 })
	}

	runOne := func(p *ir.Program) (*vm.VM, float64) {
		c := sim.NewClock()
		fs := stripefs.New(c, mp, nil)
		if err := p.Resolve(mp.PageSize); err != nil {
			t.Fatal(err)
		}
		file, _ := fs.Create(p.Name, p.TotalBytes(mp.PageSize)/mp.PageSize)
		v := vm.New(c, mp, file)
		layer := rt.Register(v, true)
		m, err := exec.New(p, v, layer)
		if err != nil {
			t.Fatal(err)
		}
		seed(file, p)
		env := m.Run()
		v.Finish()
		return v, env.Floats[0]
	}

	vO, sO := runOne(prog)
	vP, sP := runOne(res.Prog)
	if sO != sP || sO != float64(rows*nVal) {
		t.Fatalf("results differ: O=%v P=%v want %v", sO, sP, float64(rows*nVal))
	}
	if vP.Times().Total() >= vO.Times().Total() {
		t.Fatalf("prefetching lost on figure2: O=%v P=%v", vO.Times().Total(), vP.Times().Total())
	}
}

func TestSymbolicBoundsHurtCoverageAndTwoVersionFixes(t *testing.T) {
	mp := machine()
	// N is actually small (4): one c row is 32 B. With N unknown the
	// compiler mispipelines c along j, the software pipeline never gets
	// started (distance exceeds the trip count), the reference is missed,
	// and coverage craters; the two-version extension recovers it.
	mk := func() *ir.Program { return figure2(100000, 4, false) }

	resBad, err := Compile(mk(), mp, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	optFix := DefaultOptions()
	optFix.TwoVersionLoops = true
	resFix, err := Compile(mk(), mp, optFix)
	if err != nil {
		t.Fatal(err)
	}

	seed := func(file *stripefs.File, p *ir.Program) {
		exec.SeedI64(file, mp.PageSize, p.Arrays[1], func(i int64) int64 { return (i * 37) % aElems })
		exec.SeedF64(file, mp.PageSize, p.Arrays[2], func(i int64) float64 { return 1 })
	}
	cover := func(p *ir.Program) float64 {
		c := sim.NewClock()
		fs := stripefs.New(c, mp, nil)
		if err := p.Resolve(mp.PageSize); err != nil {
			t.Fatal(err)
		}
		file, _ := fs.Create(p.Name, p.TotalBytes(mp.PageSize)/mp.PageSize)
		v := vm.New(c, mp, file)
		layer := rt.Register(v, true)
		m, err := exec.New(p, v, layer)
		if err != nil {
			t.Fatal(err)
		}
		seed(file, p)
		m.Run()
		v.Finish()
		return v.Stats().CoverageFactor()
	}

	covBad := cover(resBad.Prog)
	covFix := cover(resFix.Prog)
	if covFix <= covBad {
		t.Fatalf("two-version loops did not improve coverage: bad=%.3f fix=%.3f", covBad, covFix)
	}
	if covFix < 0.8 {
		t.Fatalf("fixed coverage %.3f, want ≥0.8", covFix)
	}
}

// TestTwoVersionCompilesAsIfKnown: with two-version loops, a parameter
// unknown at compile time is planned for as if it were known — every
// stage of the pass, not only the analysis, sees its value — and is
// unknown again once the pass returns.
func TestTwoVersionCompilesAsIfKnown(t *testing.T) {
	mp := machine()
	opt := DefaultOptions()
	opt.TwoVersionLoops = true
	unknown := figure2(100000, 4, false)
	tv, err := Compile(unknown, mp, opt)
	if err != nil {
		t.Fatal(err)
	}
	known, err := Compile(figure2(100000, 4, true), mp, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if unknown.Params[0].Known {
		t.Fatal("N is still known after the two-version compile")
	}
	if !reflect.DeepEqual(tv.Plan, known.Plan) {
		t.Fatalf("two-version plan\n%+v\nknown-N plan\n%+v", tv.Plan, known.Plan)
	}
	got := strings.Replace(ir.Print(tv.Prog), " /* unknown at compile time */", "", 1)
	if want := ir.Print(known.Prog); got != want {
		t.Fatalf("two-version program\n%s\nknown-N program\n%s", got, want)
	}
}

func TestNoJobsMeansUnchangedProgram(t *testing.T) {
	// A program over < 1 page of data gets no prefetches at all.
	mp := machine()
	p := ir.NewProgram("tiny")
	a := p.NewArrayF("a", ir.Int(64))
	i := p.NewLoopVar("i")
	s := p.NewScalarF("s")
	p.Body = []ir.Stmt{
		ir.For(i, ir.Int(0), ir.Int(64), 1,
			ir.SetF(s, ir.AddF(ir.FScalar{Slot: s.Slot, Name: "s"}, ir.LoadF(a, i))),
		),
	}
	res, err := Compile(p, mp, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var hints int
	ir.WalkStmts(res.Prog.Body, func(s ir.Stmt) {
		switch s.(type) {
		case ir.Prefetch, ir.Release, ir.PrefetchRelease:
			hints++
		}
	})
	if hints != 0 {
		t.Fatalf("tiny program got %d hints, want 0", hints)
	}
}

func TestReleasesCanBeDisabled(t *testing.T) {
	mp := machine()
	opt := DefaultOptions()
	opt.Releases = false
	res, err := Compile(stream(256*512), mp, opt)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(ir.Print(res.Prog), "release") {
		t.Fatal("releases emitted with Releases=false")
	}
}

func TestPagesPerFetchOption(t *testing.T) {
	mp := machine()
	for _, ppf := range []int64{1, 2, 8} {
		opt := DefaultOptions()
		opt.PagesPerFetch = ppf
		res, err := Compile(stream(256*512), mp, opt)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Plan[0].Pages; got != ppf {
			t.Fatalf("PagesPerFetch=%d produced %d-page prefetches", ppf, got)
		}
	}
}

func TestDistanceCapRespected(t *testing.T) {
	// The cap is an eighth of the machine's frames: on 64 frames a stream's
	// lead is held to 8 pages, where a machine with room lets it run longer.
	lead := func(mp hw.Params) int64 {
		res, err := Compile(stream(256*512), mp, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		e := res.Plan[0]
		return e.Dist / e.StripLen * e.Pages
	}
	ps := hw.Default().PageSize
	small, roomy := lead(hw.Scaled(64*ps)), lead(hw.Scaled(1024*ps))
	if small > 8 || roomy <= 8 {
		t.Fatalf("lead %d pages on 64 frames (cap 8), %d on 1024: the cap does not bind", small, roomy)
	}
}

// backwardStream builds: for i in [0,n): s += a[n-1-i] — a pure
// negative-stride sweep (the shape of APPLU's upper-triangular solve).
func backwardStream(n int64) *ir.Program {
	p := ir.NewProgram("backward")
	np := p.NewParam("n", n, true)
	a := p.NewArrayF("a", np)
	s := p.NewScalarF("s")
	i := p.NewLoopVar("i")
	p.Body = []ir.Stmt{
		ir.For(i, ir.Int(0), np, 1,
			ir.SetF(s, ir.AddF(ir.FScalar{Slot: s.Slot, Name: "s"},
				ir.LoadF(a, ir.SubI(ir.SubI(np, ir.Int(1)), i)))),
		),
	}
	return p
}

func TestNegativeStridePrefetching(t *testing.T) {
	mp := machine()
	const n = 256 * 512 // 4× memory
	res, err := Compile(backwardStream(n), mp, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	vO, _, envO := run(t, backwardStream(n), mp, func(int64) float64 { return 1 }, true)
	vP, _, envP := run(t, res.Prog, mp, func(int64) float64 { return 1 }, true)
	if envO.Floats[0] != envP.Floats[0] || envO.Floats[0] != n {
		t.Fatalf("backward sums: O=%v P=%v", envO.Floats[0], envP.Floats[0])
	}
	if vP.Times().Total() >= vO.Times().Total() {
		t.Fatalf("prefetching lost on backward sweep: O=%v P=%v",
			vO.Times().Total(), vP.Times().Total())
	}
	// The backward sweep must be genuinely covered, not accidentally.
	if cov := vP.Stats().CoverageFactor(); cov < 0.9 {
		t.Fatalf("backward coverage %.3f, want ≥0.9", cov)
	}
	if hits := vP.Stats().PrefetchedHits; hits < int64(n/512/2) {
		t.Fatalf("too few prefetched hits on backward sweep: %d", hits)
	}
}

// Regression: nested strip levels whose spans do not divide each other
// (e.g. 17 and 3) must not re-execute boundary iterations. Two arrays
// with deliberately mismatched strides force non-aligned strips.
func TestNonDividingStripLevels(t *testing.T) {
	mp := machine()
	build := func() *ir.Program {
		p := ir.NewProgram("mixed")
		n := p.NewParam("n", 9000, true)
		// widths 17 and 3 elements per iteration: strip lengths become
		// floor(2048/17)=120 and floor(2048/3)=682 — coprime-ish.
		w1 := p.NewParam("w1", 17, true)
		w2 := p.NewParam("w2", 3, true)
		a := p.NewArrayF("a", ir.MulI(n, w1))
		b := p.NewArrayF("b", ir.MulI(n, w2))
		cnt := p.NewScalarF("cnt")
		i := p.NewLoopVar("i")
		p.Body = []ir.Stmt{
			ir.For(i, ir.Int(0), n, 1,
				// Touch one element of each array per iteration; count
				// iterations so duplicates are detected exactly.
				ir.StoreF(a, []ir.IExpr{ir.MulI(i, w1)}, ir.Flt(1)),
				ir.StoreF(b, []ir.IExpr{ir.MulI(i, w2)}, ir.Flt(1)),
				ir.SetF(cnt, ir.AddF(ir.FScalar{Slot: cnt.Slot, Name: "cnt"}, ir.Flt(1))),
			),
		}
		return p
	}
	res, err := Compile(build(), mp, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Require at least two strip levels, else the test proves nothing.
	levels := 0
	ir.WalkStmts(res.Prog.Body, func(s ir.Stmt) {
		if l, ok := s.(*ir.Loop); ok && l.Var != "i" {
			levels++
		}
	})
	if levels < 2 {
		t.Fatalf("expected ≥2 strip levels, got %d:\n%s", levels, ir.Print(res.Prog))
	}
	_, _, env := run(t, res.Prog, mp, nil, true)
	if got := env.Floats[0]; got != 9000 {
		t.Fatalf("loop body executed %v times, want 9000 (boundary iterations duplicated?)", got)
	}
}
