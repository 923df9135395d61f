package exec

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/hw"
	"repro/internal/ir"
	"repro/internal/profile"
	"repro/internal/rt"
	"repro/internal/sim"
	"repro/internal/stripefs"
	"repro/internal/vm"
)

// Nest-level edge cases for the kernel compiler, each run differentially
// against the closure oracle: zero-trip and single-iteration loops,
// bounds that clamp mid-page-run, reduction initial values, branch
// joins, NaN min/max semantics, the register-overflow fallback, and the
// page-run loop's entry guard and chunk edges.

func scalarRef(s ir.FScalar) ir.FExpr { return ir.FScalar{Slot: s.Slot, Name: s.Name} }

func TestNestZeroTrip(t *testing.T) {
	// Three shapes of empty loop — equal bounds, inverted bounds, and a
	// dynamically-empty inner loop — next to one loop that actually runs,
	// so the machine image is not trivially untouched. The kernel's
	// preheader guard must skip the induction-slot store entirely.
	const n = 2048
	mk := func() *ir.Program {
		p := ir.NewProgram("zerotrip")
		np := p.NewParam("n", n, true)
		a := p.NewArrayF("a", np)
		s := p.NewScalarF("s")
		i := p.NewLoopVar("i")
		j := p.NewLoopVar("j")
		k := p.NewLoopVar("k")
		p.Body = []ir.Stmt{
			ir.For(i, ir.Int(7), ir.Int(7), 1, // equal bounds: zero trips
				ir.StoreF(a, []ir.IExpr{i}, ir.Flt(-1))),
			ir.For(j, ir.Int(9), ir.Int(3), 1, // inverted bounds
				ir.StoreF(a, []ir.IExpr{j}, ir.Flt(-2))),
			ir.For(i, ir.Int(0), np, 1,
				ir.SetF(s, ir.AddF(scalarRef(s), ir.LoadF(a, i)))),
			ir.For(i, ir.Int(0), ir.Int(4), 1, // inner loop empty per outer trip
				ir.For(k, i, ir.MinI(i, ir.Int(2)), 1,
					ir.StoreF(a, []ir.IExpr{k}, ir.Flt(-3)))),
		}
		return p
	}
	seed := func(f *stripefs.File, p *ir.Program) {
		SeedF64(f, hw.Default().PageSize, p.Arrays[0], func(i int64) float64 { return float64(i % 31) })
	}
	runDifferentialSites(t, mk, 8, seed, true)
}

func TestNestSingleIteration(t *testing.T) {
	// One-trip loops: the back edge is never taken, so the preheader's
	// slot store is the only one, and reductions fold exactly one term.
	mk := func() *ir.Program {
		p := ir.NewProgram("onetrip")
		np := p.NewParam("n", 512, true)
		a := p.NewArrayF("a", np)
		s := p.NewScalarF("s")
		i := p.NewLoopVar("i")
		j := p.NewLoopVar("j")
		p.Body = []ir.Stmt{
			ir.For(i, ir.Int(3), ir.Int(4), 1,
				ir.For(j, i, ir.AddI(i, ir.Int(1)), 1,
					ir.SetF(s, ir.AddF(scalarRef(s), ir.LoadF(a, ir.AddI(i, j)))),
					ir.StoreF(a, []ir.IExpr{j}, ir.MulF(scalarRef(s), ir.Flt(2))))),
		}
		return p
	}
	seed := func(f *stripefs.File, p *ir.Program) {
		SeedF64(f, hw.Default().PageSize, p.Arrays[0], func(i int64) float64 { return float64(i) / 3 })
	}
	env, _ := runDifferentialSites(t, mk, 8, seed, false)
	want := 6.0 / 3 // a[i+j] = a[6], one trip with i=j=3
	found := false
	for _, f := range env.Floats {
		if f == want {
			found = true
		}
	}
	if !found {
		t.Fatalf("reduction %v not found in float slots %v", want, env.Floats)
	}
}

func TestNestBoundClampMidPageRun(t *testing.T) {
	// The loop bound lands partway through a page (min(n, m) with m not
	// page-aligned): the span driver must clamp its last run exactly
	// where the oracle stops.
	pageElems := hw.Default().PageSize / ir.ElemSize
	n := 16 * pageElems
	m := 11*pageElems + pageElems/3
	mk := func() *ir.Program {
		p := ir.NewProgram("clamp")
		np := p.NewParam("n", n, true)
		mp := p.NewParam("m", m, true)
		a := p.NewArrayF("a", np)
		s := p.NewScalarF("s")
		i := p.NewLoopVar("i")
		p.Body = []ir.Stmt{
			ir.For(i, ir.Int(0), ir.MinI(np, mp), 1,
				ir.SetF(s, ir.AddF(scalarRef(s), ir.LoadF(a, i))),
				ir.StoreF(a, []ir.IExpr{i}, ir.AddF(ir.LoadF(a, i), ir.Flt(1)))),
		}
		return p
	}
	seed := func(f *stripefs.File, p *ir.Program) {
		SeedF64(f, hw.Default().PageSize, p.Arrays[0], func(i int64) float64 { return float64(i % 17) })
	}
	runDifferential(t, mk, 8, seed)
}

func TestNestReductionInitialValue(t *testing.T) {
	// The accumulator starts from a computed non-zero value, and a second
	// reduction chains off the first's result.
	const n = 4096
	mk := func() *ir.Program {
		p := ir.NewProgram("redinit")
		np := p.NewParam("n", n, true)
		a := p.NewArrayF("a", np)
		s := p.NewScalarF("s")
		q := p.NewScalarF("q")
		i := p.NewLoopVar("i")
		p.Body = []ir.Stmt{
			ir.SetF(s, ir.Flt(2.25)),
			ir.For(i, ir.Int(0), np, 1,
				ir.SetF(s, ir.AddF(scalarRef(s), ir.LoadF(a, i)))),
			ir.SetF(q, ir.MulF(scalarRef(s), ir.Flt(0.5))),
			ir.For(i, ir.Int(0), np, 1,
				ir.SetF(q, ir.AddF(scalarRef(q), ir.MulF(ir.LoadF(a, i), ir.Flt(3))))),
		}
		return p
	}
	seed := func(f *stripefs.File, p *ir.Program) {
		SeedF64(f, hw.Default().PageSize, p.Arrays[0], func(i int64) float64 { return 1 })
	}
	env, _ := runDifferential(t, mk, 8, seed)
	wantS := 2.25 + n
	wantQ := wantS/2 + 3*n
	okS, okQ := false, false
	for _, f := range env.Floats {
		if f == wantS {
			okS = true
		}
		if f == wantQ {
			okQ = true
		}
	}
	if !okS || !okQ {
		t.Fatalf("want s=%v q=%v somewhere in float slots %v", wantS, wantQ, env.Floats)
	}
}

func TestNestIfElseJoin(t *testing.T) {
	// Both branch arms write scalars and memory; after the join the loop
	// keeps using them, so the compiler's register invalidation at the
	// join must be exact.
	const n = 2048
	mk := func() *ir.Program {
		p := ir.NewProgram("branchy")
		np := p.NewParam("n", n, true)
		a := p.NewArrayF("a", np)
		s := p.NewScalarF("s")
		cnt := p.NewScalarI("cnt")
		i := p.NewLoopVar("i")
		p.Body = []ir.Stmt{
			ir.For(i, ir.Int(0), np, 1,
				ir.If{
					Cond: ir.CmpF{Op: ir.Gt, A: ir.LoadF(a, i), B: ir.Flt(0.5)},
					Then: []ir.Stmt{
						ir.SetI(cnt, ir.AddI(cnt, ir.Int(1))),
						ir.SetF(s, ir.AddF(scalarRef(s), ir.LoadF(a, i))),
					},
					Else: []ir.Stmt{
						ir.StoreF(a, []ir.IExpr{i}, ir.SubF(ir.Flt(1), ir.LoadF(a, i))),
					},
				},
				ir.SetF(s, ir.AddF(scalarRef(s), ir.MulF(ir.LoadF(a, i), ir.Flt(0.25))))),
		}
		return p
	}
	seed := func(f *stripefs.File, p *ir.Program) {
		SeedF64(f, hw.Default().PageSize, p.Arrays[0], func(i int64) float64 { return float64(i%7) / 6 })
	}
	runDifferentialSites(t, mk, 8, seed, false)
}

func TestNestFMinNaN(t *testing.T) {
	// The oracle's fmin is `x < y ? x : y`: a NaN on the LEFT loses (the
	// comparison is false, the right operand wins), so a NaN seeded
	// mid-array must wash out rather than stick. The kernel's opFMin has
	// to reproduce that asymmetry bit-for-bit.
	const n = 1024
	mk := func() *ir.Program {
		p := ir.NewProgram("fminnan")
		np := p.NewParam("n", n, true)
		a := p.NewArrayF("a", np)
		lo := p.NewScalarF("lo")
		hi := p.NewScalarF("hi")
		i := p.NewLoopVar("i")
		p.Body = []ir.Stmt{
			ir.SetF(lo, ir.Flt(math.Inf(1))),
			ir.SetF(hi, ir.Flt(math.Inf(-1))),
			ir.For(i, ir.Int(0), np, 1,
				ir.SetF(lo, ir.FBin{Op: ir.FMinOp, A: scalarRef(lo), B: ir.LoadF(a, i)}),
				ir.SetF(hi, ir.FBin{Op: ir.FMaxOp, A: scalarRef(hi), B: ir.LoadF(a, i)})),
		}
		return p
	}
	seed := func(f *stripefs.File, p *ir.Program) {
		SeedF64(f, hw.Default().PageSize, p.Arrays[0], func(i int64) float64 {
			if i == 300 {
				return math.NaN()
			}
			return float64((i*37)%101) - 50
		})
	}
	env, _ := runDifferentialSites(t, mk, 8, seed, false)
	okLo, okHi := false, false
	for _, f := range env.Floats {
		if f == -50 {
			okLo = true
		}
		if f == 50 {
			okHi = true
		}
	}
	if !okLo || !okHi {
		t.Fatalf("NaN stuck in a reduction: float slots %v", env.Floats)
	}
}

func TestNestRegisterOverflowFallback(t *testing.T) {
	// A body large enough to exhaust the 16-bit register file: NewWith
	// must fall back to the plain closure oracle — no bytecode installed,
	// and no page-run specialization of the eligible loop either — and
	// the program must still run identically to the NoFastPath oracle.
	const n = 70000 // distinct float constants > the 65535-register file
	mk := func() *ir.Program {
		p := ir.NewProgram("regflood")
		np := p.NewParam("n", 2048, true)
		a := p.NewArrayF("a", np)
		s := p.NewScalarF("s")
		i := p.NewLoopVar("i")
		body := make([]ir.Stmt, 0, n+1)
		body = append(body, ir.For(i, ir.Int(0), np, 1,
			ir.StoreF(a, []ir.IExpr{i}, ir.FromInt{X: i})))
		for c := 0; c < n; c++ {
			body = append(body, ir.SetF(s, ir.AddF(scalarRef(s), ir.Flt(float64(c)))))
		}
		p.Body = body
		return p
	}
	_, _, _, m := buildWith(t, mk(), 8, Options{})
	if m.code != nil || m.SpecializedSites() != 0 {
		t.Fatalf("register overflow did not fall back to the plain oracle (bytecode %v, %d specialized sites)",
			m.code != nil, m.SpecializedSites())
	}
	runDifferentialSites(t, mk, 8, nil, false)
}

// rowsProgram builds nrows rows of 500 elements, row r running an inner
// page-run loop of trip(r) iterations that reads a, writes b and reduces
// into s; the rows straddle pages at varying offsets.
func rowsProgram(trip func(r ir.IExpr) ir.IExpr, nrows int64) *ir.Program {
	p := ir.NewProgram("rows")
	np := p.NewParam("n", nrows*500+128, true)
	a := p.NewArrayF("a", np)
	b := p.NewArrayF("b", np)
	s := p.NewScalarF("s")
	r := p.NewLoopVar("r")
	j := p.NewLoopVar("j")
	at := ir.AddI(ir.MulI(r, ir.Int(500)), j)
	p.Body = []ir.Stmt{
		ir.For(r, ir.Int(0), ir.Int(nrows), 1,
			ir.For(j, ir.Int(0), trip(r), 1,
				ir.StoreF(b, []ir.IExpr{at}, ir.AddF(ir.MulF(ir.LoadF(a, at), ir.Flt(2)), ir.FromInt{X: j})),
				ir.SetF(s, ir.AddF(scalarRef(s), ir.LoadF(b, at))))),
	}
	return p
}

func TestNestSpanEntryEdges(t *testing.T) {
	// The page-run loop's per-entry decisions, each against the oracle:
	// trip counts on both sides of spanMinTrip, one loop entered short
	// and then long within a single run (the strip-mined FFT shape — the
	// per-entry state must reset, and a long entry must reseed its
	// subscripts from the new base), and negative-stride runs whose last
	// element sits exactly on a page edge.
	pageElems := hw.Default().PageSize / ir.ElemSize
	rows := func(trip func(r ir.IExpr) ir.IExpr, nrows int64) func() *ir.Program {
		return func() *ir.Program { return rowsProgram(trip, nrows) }
	}
	fixed := func(n int64) func(ir.IExpr) ir.IExpr {
		return func(ir.IExpr) ir.IExpr { return ir.Int(n) }
	}
	cases := []struct {
		name string
		mk   func() *ir.Program
	}{
		{"trip-7", rows(fixed(spanMinTrip-1), 24)},
		{"trip-8", rows(fixed(spanMinTrip), 24)},
		{"trip-9", rows(fixed(spanMinTrip+1), 24)},
		{"short-then-long", rows(func(r ir.IExpr) ir.IExpr { return ir.ShlI(ir.Int(1), r) }, 8)}, // 1, 2, 4, ... 128
		{"negative-stride-page-edge", func() *ir.Program {
			p := ir.NewProgram("revedge")
			np := p.NewParam("n", 6*pageElems, true)
			a := p.NewArrayF("a", np)
			b := p.NewArrayF("b", np)
			s := p.NewScalarF("s")
			i := p.NewLoopVar("i")
			p.Body = []ir.Stmt{
				// a walks down from the last word of page 3 to word 0 of
				// page 1; b walks down in twos and ends on b[0].
				ir.For(i, ir.Int(0), ir.Int(3*pageElems), 1,
					ir.SetF(s, ir.AddF(scalarRef(s), ir.MulF(
						ir.LoadF(a, ir.SubI(ir.Int(4*pageElems-1), i)),
						ir.LoadF(b, ir.MulI(ir.SubI(ir.Int(3*pageElems-1), i), ir.Int(2))))))),
			}
			return p
		}},
	}
	seed := func(f *stripefs.File, p *ir.Program) {
		for _, arr := range p.Arrays {
			SeedF64(f, hw.Default().PageSize, arr, func(i int64) float64 { return float64(i%29) / 4 })
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runDifferential(t, tc.mk, 8, seed)
		})
	}
}

func TestNestReports(t *testing.T) {
	// The per-loop reports must name the driver each loop actually got
	// and a sensible fallback reason for the ones that missed page-run.
	pageElems := hw.Default().PageSize / ir.ElemSize
	p := ir.NewProgram("reportful")
	np := p.NewParam("n", 4*pageElems, true)
	a := p.NewArrayF("a", np)
	key := p.NewArrayI("key", np)
	s := p.NewScalarF("s")
	it := p.NewLoopVar("it")
	i := p.NewLoopVar("i")
	j := p.NewLoopVar("j")
	p.Body = []ir.Stmt{
		ir.For(it, ir.Int(0), ir.Int(2), 1,
			ir.For(i, ir.Int(0), np, 1,
				ir.SetF(s, ir.AddF(scalarRef(s), ir.LoadF(a, i))))),
		ir.For(j, ir.Int(0), np, 1,
			ir.SetF(s, ir.AddF(scalarRef(s), ir.LoadF(a, ir.LoadI(key, j))))),
	}
	_, _, _, m := buildWith(t, p, 64, Options{})
	got := m.Reports()
	want := []struct {
		v      string
		depth  int
		driver string
		reason FallbackReason
	}{
		{"it", 0, "kernel", ReasonOuterLoop},
		{"i", 1, "page-run", ReasonSpecialized},
		{"j", 0, "kernel", ReasonIndirectIndex},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d reports, want %d: %v", len(got), len(want), got)
	}
	for k, w := range want {
		r := got[k]
		if r.Var != w.v || r.Depth != w.depth || r.Driver != w.driver || r.Reason != w.reason {
			t.Errorf("report %d = %+v, want %s depth=%d %s/%s", k, r, w.v, w.depth, w.driver, w.reason)
		}
		if r.Driver == "page-run" && r.Sites == 0 {
			t.Errorf("page-run report %d has zero sites", k)
		}
	}
	for _, r := range got {
		if r.String() == "" {
			t.Errorf("empty String() for %+v", r)
		}
	}

	// A recording compile declines exactly the eligible loop, by name.
	art, err := Compile(p, hw.Default().PageSize, Options{Profile: profile.NewRecorder(p, hw.Default().PageSize)})
	if err != nil {
		t.Fatal(err)
	}
	for k, r := range art.Reports() {
		w := want[k].reason
		if w == ReasonSpecialized {
			w = ReasonRecording
		}
		if r.Driver != "kernel" || r.Reason != w {
			t.Errorf("recording report %d = %+v, want kernel/%s", k, r, w)
		}
	}
	if got := ReasonRecording.String(); got != "recording" {
		t.Errorf("ReasonRecording prints %q", got)
	}

	// NoFastPath: the whole program is the oracle, nothing to report.
	p2 := ir.NewProgram("quiet")
	np2 := p2.NewParam("n", 256, true)
	a2 := p2.NewArrayF("a", np2)
	k2 := p2.NewLoopVar("k")
	p2.Body = []ir.Stmt{ir.For(k2, ir.Int(0), np2, 1,
		ir.StoreF(a2, []ir.IExpr{k2}, ir.Flt(1)))}
	_, _, _, m2 := buildWith(t, p2, 64, Options{NoFastPath: true})
	if n := len(m2.Reports()); n != 0 {
		t.Fatalf("NoFastPath machine has %d reports, want 0", n)
	}
}

func TestFallbackReasonStrings(t *testing.T) {
	for r := ReasonSpecialized; r <= ReasonUnsupportedBody; r++ {
		if s := r.String(); s == "" || s[0] == 'r' && s != "reason(255)" && len(s) > 7 && s[:7] == "reason(" {
			t.Errorf("reason %d has no name: %q", r, s)
		}
	}
	if got := FallbackReason(255).String(); got != fmt.Sprintf("reason(%d)", 255) {
		t.Errorf("out-of-range reason prints %q", got)
	}
}

func TestArtifactConcurrentBind(t *testing.T) {
	// One Artifact, bound to a fresh VM and run by several goroutines at
	// once: the artifact holds no per-run state, so every run must be
	// tick-identical to a serial one (and clean under the race detector).
	// Short and long entries of one page-run loop: trips 1, 2, 4, ... 128.
	prog := rowsProgram(func(r ir.IExpr) ir.IExpr { return ir.ShlI(ir.Int(1), r) }, 8)
	p := hw.Default()
	p.MemoryBytes = 8 * p.PageSize
	art, err := Compile(prog, p.PageSize, Options{})
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		sum   float64
		times vm.TimeStats
		stats vm.Stats
		err   error
	}
	run := func() (o outcome) {
		c := sim.NewClock()
		file, err := stripefs.New(c, p, nil).Create(prog.Name, prog.TotalBytes(p.PageSize)/p.PageSize)
		if err != nil {
			return outcome{err: err}
		}
		v := vm.New(c, p, file)
		m, err := art.Bind(v, rt.Register(v, true))
		if err != nil {
			return outcome{err: err}
		}
		if m.SpecializedSites() == 0 {
			return outcome{err: fmt.Errorf("nothing specialized — the test is vacuous")}
		}
		SeedF64(file, p.PageSize, prog.Arrays[0], func(i int64) float64 { return float64(i%29) / 4 })
		env := m.Run()
		v.Finish()
		return outcome{sum: env.Floats[0], times: v.Times(), stats: v.Stats()}
	}
	want := run()
	if want.err != nil {
		t.Fatal(want.err)
	}
	const workers = 8
	got := make([]outcome, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = run()
		}(w)
	}
	wg.Wait()
	for w, o := range got {
		if o != want {
			t.Errorf("concurrent run %d = %+v, serial run = %+v", w, o, want)
		}
	}
}
