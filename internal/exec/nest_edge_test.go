package exec

import (
	"errors"
	"fmt"
	"math"
	"strings"
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
// joins, NaN min/max semantics, the bytecode's table limits, and the
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

// overflowPrograms are programs past a kernel bytecode table, keyed by the
// LimitError.Limit each must report. ("span table" has no row: every loop
// takes an int register for its induction value, so those run out first.)
var overflowPrograms = map[string]func() *ir.Program{
	// 70,000 distinct float constants, each pinned in a register.
	"float registers": func() *ir.Program {
		p := ir.NewProgram("regflood")
		s := p.NewScalarF("s")
		for c := 0; c < 70000; c++ {
			p.Body = append(p.Body, ir.SetF(s, ir.AddF(scalarRef(s), ir.Flt(float64(c)))))
		}
		return p
	},
	// The same flood of integer constants (an immediate form needs no
	// register, so each is the right operand of a min).
	"int registers": func() *ir.Program {
		p := ir.NewProgram("iregflood")
		s := p.NewScalarI("s")
		for c := 1; c <= 70000; c++ {
			p.Body = append(p.Body, ir.SetI(s, ir.MinI(s, ir.Int(int64(c)))))
		}
		return p
	},
	// One bounds-check entry per (array, dimension): 33,000 2-D arrays.
	"aux table": func() *ir.Program {
		p := ir.NewProgram("auxflood")
		s := p.NewScalarF("s")
		for c := 0; c < 33000; c++ {
			a := p.NewArrayF(fmt.Sprintf("a%d", c), ir.Int(1), ir.Int(1))
			p.Body = append(p.Body, ir.SetF(s, ir.LoadF(a, ir.Int(0), ir.Int(0))))
		}
		return p
	},
	// One template entry per indirect constant-page prefetch.
	"hint-aux table": func() *ir.Program {
		p := ir.NewProgram("hauxflood")
		a := p.NewArrayF("a", ir.Int(8))
		c := p.NewArrayI("c", ir.Int(8))
		for k := 0; k < 66000; k++ {
			p.Body = append(p.Body, ir.Prefetch{Arr: a, Idx: []ir.IExpr{ir.LoadI(c, ir.Int(0))}, Pages: ir.Int(1)})
		}
		return p
	},
}

func TestNestRegisterOverflowIsTypedError(t *testing.T) {
	// A program past any of the bytecode's 16-bit-indexed tables is refused
	// with a *LimitError naming the table; no closure tree stands in for it.
	ps := hw.Default().PageSize
	for limit, mk := range overflowPrograms {
		a, err := Compile(mk(), ps, Options{})
		var le *LimitError
		if !errors.As(err, &le) || le.Limit != limit || !strings.Contains(err.Error(), limit) {
			t.Errorf("%s: Compile returned (%v, %v), want a *LimitError naming it", limit, a != nil, err)
		}
	}
	// The reference semantics have no such tables.
	if _, err := compileOracle(overflowPrograms["float registers"](), ps); err != nil {
		t.Errorf("oracle: %v", err)
	}
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

// absorbNest describes a k-over-rows nest whose inner loop the k loop may
// absorb: rows of width words in a and b, row k (or n-1-k when rev) read
// from a and written to b at column m-lo for m = lo; m < hi; m += step,
// with the inner variable also used as a value, and a reduction over what
// was stored. fan > 0 adds that many reads of a per element, from rows 128
// apart (over a page each): more pages per iteration than a small VM has
// frames.
type absorbNest struct {
	n, width     int64
	lo, hi, step int64
	rev          bool
	fan          int64
	hiExpr       func(p *ir.Program) (pre []ir.Stmt, hi ir.IExpr) // overrides hi
}

func (c absorbNest) program() *ir.Program {
	p := ir.NewProgram("absorb")
	np := p.NewParam("n", c.n, true)
	a := p.NewArrayF("a", ir.AddI(np, ir.Int(c.fan*128)), ir.Int(c.width))
	b := p.NewArrayF("b", np, ir.Int(c.width))
	s := p.NewScalarF("s")
	last := p.NewScalarI("last")
	k := p.NewLoopVar("k")
	m := p.NewLoopVar("m")
	var pre []ir.Stmt
	hi := ir.Int(c.hi)
	if c.hiExpr != nil {
		pre, hi = c.hiExpr(p)
	}
	var row ir.IExpr = k
	if c.rev {
		row = ir.SubI(ir.SubI(np, ir.Int(1)), k)
	}
	// The column is lo back from m (an expression over the inner variable
	// unless lo is 0), and m also feeds a value expression.
	var col ir.IExpr = m
	if c.lo != 0 {
		col = ir.SubI(m, ir.Int(c.lo))
	}
	at := []ir.IExpr{row, col}
	val := ir.LoadF(a, at...)
	for j := int64(1); j <= c.fan; j++ {
		val = ir.AddF(val, ir.LoadF(a, ir.AddI(row, ir.Int(j*128)), col))
	}
	p.Body = append(pre,
		ir.For(k, ir.Int(0), np, 1,
			ir.For(m, ir.Int(c.lo), hi, c.step,
				ir.StoreF(b, at, ir.AddF(ir.MulF(val, ir.Flt(2)), ir.FromInt{X: ir.AddI(ir.MulI(m, ir.Int(3)), k)})),
				ir.SetF(s, ir.AddF(scalarRef(s), ir.LoadF(b, at...))))),
		ir.SetI(last, ir.AddI(m, k))) // both induction slots, read after the nest
	return p
}

func seedAll(f *stripefs.File, p *ir.Program) {
	for _, arr := range p.Arrays {
		SeedF64(f, hw.Default().PageSize, arr, func(i int64) float64 { return float64(i%29) / 4 })
	}
}

// loopReport returns the report of the first loop over v.
func loopReport(t *testing.T, m *Machine, v string) LoopReport {
	t.Helper()
	for _, r := range m.Reports() {
		if r.Var == v {
			return r
		}
	}
	t.Fatalf("no report for loop %s in %v", v, m.Reports())
	return LoopReport{}
}

func TestNestAbsorbedInnerLoops(t *testing.T) {
	// A page-run loop absorbs its constant-trip inner loops: every shape
	// runs against the oracle, and the reports say which loop took the
	// spans. Rows are 5 (or 7) words wide and a page holds 512, so over 1000
	// rows a row straddles a page boundary at every alignment.
	type want struct {
		outer  FallbackReason // the k loop
		unroll int
		inner  FallbackReason // the m loop
	}
	absorbed := func(u int) want { return want{ReasonSpecialized, u, ReasonAbsorbed} }
	cases := []struct {
		name string
		nest absorbNest
		want want
	}{
		{"trip-1", absorbNest{n: 1000, width: 5, hi: 1, step: 1}, absorbed(1)},
		{"trip-2", absorbNest{n: 1000, width: 5, hi: 2, step: 1}, absorbed(2)},
		{"trip-5", absorbNest{n: 1000, width: 5, hi: 5, step: 1}, absorbed(5)},
		// Under a page of rows, touched beforehand: one chunk runs the whole
		// loop and no per-element iteration ever stores the inner slot — only
		// the chunk's commit leaves its final value for the read after the nest.
		{"single-chunk", absorbNest{n: 100, width: 5, step: 1, hiExpr: func(p *ir.Program) ([]ir.Stmt, ir.IExpr) {
			w, s0 := p.NewLoopVar("w"), p.NewScalarF("s0")
			return []ir.Stmt{ir.For(w, ir.Int(0), ir.Int(100), 1, ir.SetF(s0, ir.AddF(scalarRef(s0),
				ir.AddF(ir.LoadF(p.Arrays[0], w, ir.Int(0)), ir.LoadF(p.Arrays[1], w, ir.Int(0))))))}, ir.Int(5)
		}}, absorbed(5)},
		{"trip-7", absorbNest{n: 1000, width: 7, hi: spanMinTrip - 1, step: 1}, absorbed(spanMinTrip - 1)},
		{"trip-8-not-absorbed", absorbNest{n: 1000, width: 8, hi: spanMinTrip, step: 1},
			want{ReasonOuterLoop, 0, ReasonSpecialized}},
		{"lo-1-step-2", absorbNest{n: 1000, width: 7, lo: 1, hi: 6, step: 2}, absorbed(3)},
		{"negative-outer-coefficient", absorbNest{n: 1000, width: 5, lo: 1, hi: 5, step: 3, rev: true}, absorbed(2)},
		{"zero-trip-not-absorbed", absorbNest{n: 1000, width: 5, lo: 3, hi: 3, step: 1},
			want{ReasonOuterLoop, 0, ReasonShortTrip}},
		{"param-bound", absorbNest{n: 1000, width: 5, step: 1, hiExpr: func(p *ir.Program) ([]ir.Stmt, ir.IExpr) {
			return nil, p.NewParam("bm", 5, false) // unknown to the prefetch compiler, not to the machine
		}}, absorbed(5)},
		{"written-scalar-bound-not-folded", absorbNest{n: 1000, width: 5, step: 1, hiExpr: func(p *ir.Program) ([]ir.Stmt, ir.IExpr) {
			h := p.NewScalarI("h")
			return []ir.Stmt{ir.SetI(h, ir.Int(5))}, h
		}}, want{ReasonOuterLoop, 0, ReasonSpecialized}},
		// Ten pages an iteration on eight frames: every chunk is declined at
		// the site whose page is out, and the per-element body faults mid-nest.
		{"few-frames", absorbNest{n: 400, width: 5, hi: 5, step: 1, fan: 8}, absorbed(5)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, _, m := buildWith(t, tc.nest.program(), 8, Options{})
			k, in := loopReport(t, m, "k"), loopReport(t, m, "m")
			if k.Reason != tc.want.outer || in.Reason != tc.want.inner || k.Unroll != tc.want.unroll && tc.want.unroll > 0 {
				t.Errorf("reports: k = %s, m = %s; want %s ×%d / %s", k, in, tc.want.outer, tc.want.unroll, tc.want.inner)
			}
			env, _ := runDifferentialSites(t, tc.nest.program, 8, seedAll, tc.want.inner != ReasonShortTrip)
			switch {
			case tc.nest.fan > 0:
				if env.Span.Declined < 10*env.Span.Chunks {
					t.Errorf("few frames should decline nearly every chunk: %+v", env.Span)
				}
			case tc.want.inner == ReasonAbsorbed && env.Span.UserOps == 0:
				t.Errorf("the absorbing loop entered no chunk: %+v", env.Span)
			}
		})
	}
}

func TestNestAbsorbedBlockSolve(t *testing.T) {
	// APPBT's shape: two absorbed levels (5 × 5 = 25 copies) under a
	// param-valued bound, a scalar accumulator reset per row, and the
	// update store after the inner loop. A 7 × 7 block is past the unroll
	// budget: k stays an outer loop, and m (which could absorb q) and q are
	// short-trip loops at 7 trips each.
	mk := func(bm int64) func() *ir.Program {
		return func() *ir.Program {
			p := ir.NewProgram("blocksolve")
			np := p.NewParam("n", 300, true)
			bmp := p.NewParam("bm", bm, false)
			blk := p.NewArrayF("blk", np, bmp, bmp)
			rhs := p.NewArrayF("rhs", np, bmp)
			acc := p.NewScalarF("acc")
			k, m, q := p.NewLoopVar("k"), p.NewLoopVar("m"), p.NewLoopVar("q")
			p.Body = []ir.Stmt{
				ir.For(k, ir.Int(1), np, 1,
					ir.For(m, ir.Int(0), bmp, 1,
						ir.SetF(acc, ir.Flt(0)),
						ir.For(q, ir.Int(0), bmp, 1,
							ir.SetF(acc, ir.AddF(scalarRef(acc), ir.MulF(
								ir.LoadF(blk, k, m, q), ir.LoadF(rhs, ir.SubI(k, ir.Int(1)), q))))),
						ir.StoreF(rhs, []ir.IExpr{k, m},
							ir.SubF(ir.LoadF(rhs, k, m), ir.MulF(ir.Flt(0.1), scalarRef(acc)))))),
			}
			return p
		}
	}
	_, _, _, m5 := buildWith(t, mk(5)(), 8, Options{})
	if r := loopReport(t, m5, "k"); r.Driver != "page-run" || r.Unroll != 25 || r.Sites != 60 {
		t.Errorf("5×5 block: k = %s, want page-run with 60 sites, 25× unrolled", r)
	}
	for _, v := range []string{"m", "q"} {
		if r := loopReport(t, m5, v); r.Reason != ReasonAbsorbed {
			t.Errorf("5×5 block: %s = %s, want absorbed", v, r)
		}
	}
	if env, _ := runDifferential(t, mk(5), 8, seedAll); env.Span.Chunks == 0 {
		t.Error("5×5 block entered no chunk")
	}

	_, _, _, m7 := buildWith(t, mk(7)(), 8, Options{})
	for v, want := range map[string]FallbackReason{"k": ReasonOuterLoop, "m": ReasonShortTrip, "q": ReasonShortTrip} {
		if r := loopReport(t, m7, v); r.Driver != "kernel" || r.Reason != want {
			t.Errorf("7×7 block: %s = %s, want kernel %s", v, r, want)
		}
	}
	runDifferentialSites(t, mk(7), 8, seedAll, false)
}

func TestNestAbsorbCorners(t *testing.T) {
	// Shapes the absorbing walk must leave alone, each still tick-identical
	// to the oracle: the inner variable read before its loop in the same
	// iteration (the span body never stores it, so that read would see a
	// stale slot), assigned inside its own loop, and a hint beside the
	// inner loop (the parent is out; the inner loop reports short-trip).
	// And one it takes: an absorbed loop nested in another over the same
	// variable, whose slot the statement after it reads at the inner
	// loop's final value.
	build := func(body func(p *ir.Program, a *ir.Array, k, m ir.ISlot, s ir.FScalar) []ir.Stmt) func() *ir.Program {
		return func() *ir.Program {
			p := ir.NewProgram("declines")
			np := p.NewParam("n", 600, true)
			a := p.NewArrayF("a", np, ir.Int(5))
			s := p.NewScalarF("s")
			k, m := p.NewLoopVar("k"), p.NewLoopVar("m")
			p.Body = []ir.Stmt{ir.For(k, ir.Int(0), np, 1, body(p, a, k, m, s)...)}
			return p
		}
	}
	inner := func(a *ir.Array, k, m ir.ISlot, s ir.FScalar, extra ...ir.Stmt) ir.Stmt {
		return ir.For(m, ir.Int(0), ir.Int(5), 1, append([]ir.Stmt{
			ir.SetF(s, ir.AddF(scalarRef(s), ir.LoadF(a, k, m)))}, extra...)...)
	}
	cases := []struct {
		name     string
		mk       func() *ir.Program
		k, m     FallbackReason
		hasSites bool
	}{
		{"read-before-loop", build(func(p *ir.Program, a *ir.Array, k, m ir.ISlot, s ir.FScalar) []ir.Stmt {
			return []ir.Stmt{ir.SetF(s, ir.AddF(scalarRef(s), ir.FromInt{X: m})), inner(a, k, m, s)}
		}), ReasonOuterLoop, ReasonShortTrip, false},
		{"inner-variable-assigned", build(func(p *ir.Program, a *ir.Array, k, m ir.ISlot, s ir.FScalar) []ir.Stmt {
			return []ir.Stmt{inner(a, k, m, s, ir.SetI(m, ir.AddI(m, ir.Int(1))))}
		}), ReasonInductionWrite, ReasonInductionWrite, false},
		{"hint-beside-inner-loop", build(func(p *ir.Program, a *ir.Array, k, m ir.ISlot, s ir.FScalar) []ir.Stmt {
			return []ir.Stmt{ir.Prefetch{Arr: a, Idx: []ir.IExpr{k, ir.Int(0)}, Pages: ir.Int(1)}, inner(a, k, m, s)}
		}), ReasonHintInBody, ReasonShortTrip, false},
		{"nested-same-variable", build(func(p *ir.Program, a *ir.Array, k, m ir.ISlot, s ir.FScalar) []ir.Stmt {
			return []ir.Stmt{ir.For(m, ir.Int(0), ir.Int(3), 1,
				ir.For(m, ir.Int(0), ir.Int(2), 1, ir.SetF(s, ir.AddF(scalarRef(s), ir.LoadF(a, k, m)))),
				ir.SetF(s, ir.AddF(scalarRef(s), ir.LoadF(a, k, ir.AddI(m, ir.Int(3))))))}
		}), ReasonSpecialized, ReasonAbsorbed, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, _, mach := buildWith(t, tc.mk(), 8, Options{})
			if k, m := loopReport(t, mach, "k"), loopReport(t, mach, "m"); k.Reason != tc.k || m.Reason != tc.m {
				t.Errorf("reports: k = %s, m = %s; want %s / %s", k, m, tc.k, tc.m)
			}
			runDifferentialSites(t, tc.mk, 8, seedAll, tc.hasSites)
		})
	}
}

func TestNestShiftSubscripts(t *testing.T) {
	// A subscript shifted left by a constant is linear in the loop
	// variable (i << 2 is 4·i), so these loops run on page spans; each is
	// tick-identical to the oracle, reading and writing, with and without
	// an offset.
	pageElems := hw.Default().PageSize / ir.ElemSize
	const n = 3000
	cases := []struct {
		name string
		sub  func(i ir.ISlot) ir.IExpr
	}{
		{"i<<1", func(i ir.ISlot) ir.IExpr { return ir.ShlI(i, ir.Int(1)) }},
		{"(i<<2)+3", func(i ir.ISlot) ir.IExpr { return ir.AddI(ir.ShlI(i, ir.Int(2)), ir.Int(3)) }},
	}
	for _, tc := range cases {
		for _, write := range []bool{false, true} {
			mk := func() *ir.Program {
				p := ir.NewProgram("shift")
				a := p.NewArrayF("a", ir.Int(4*n+pageElems))
				s := p.NewScalarF("s")
				i := p.NewLoopVar("i")
				at := tc.sub(i)
				st := ir.SetF(s, ir.AddF(scalarRef(s), ir.LoadF(a, at)))
				if write {
					st = ir.StoreF(a, []ir.IExpr{at}, ir.MulF(ir.LoadF(a, at), ir.Flt(1.5)))
				}
				p.Body = []ir.Stmt{ir.For(i, ir.Int(0), ir.Int(n), 1, st)}
				return p
			}
			t.Run(fmt.Sprintf("%s/write=%v", tc.name, write), func(t *testing.T) {
				_, _, _, mach := buildWith(t, mk(), 8, Options{})
				if r := loopReport(t, mach, "i"); r.Reason != ReasonSpecialized {
					t.Fatalf("loop i: %s, want page-run", r.Reason)
				}
				runDifferentialSites(t, mk, 8, seedAll, true)
			})
		}
	}
}

func TestNestAbsorbedTrapAtOneCopy(t *testing.T) {
	// a has 4 columns and the inner loop runs 5: the constant subscript is
	// out of range at exactly one unrolled position. The chunk is declined,
	// the per-element nest stores columns 0..3 of row 0 and traps at column
	// 4 with the oracle's text, leaving the oracle's memory image and faults.
	mk := func() *ir.Program {
		p := ir.NewProgram("trapcopy")
		np := p.NewParam("n", 600, true)
		a := p.NewArrayF("a", np, ir.Int(4))
		k, m := p.NewLoopVar("k"), p.NewLoopVar("m")
		p.Body = []ir.Stmt{ir.For(k, ir.Int(0), np, 1,
			ir.For(m, ir.Int(0), ir.Int(5), 1,
				ir.StoreF(a, []ir.IExpr{k, m}, ir.AddF(ir.LoadF(a, k, m), ir.Flt(1)))))}
		return p
	}
	run := func(oracle bool) (trap string, v *vm.VM) {
		prog := mk()
		_, v, file, m := buildEither(t, framed(8), prog, oracle)
		if bc, ok := m.(*Machine); ok && loopReport(t, bc, "k").Unroll != 5 {
			t.Fatalf("k did not absorb m: %v", bc.Reports())
		}
		seedAll(file, prog)
		defer func() {
			e, ok := recover().(*TrapError)
			if !ok {
				t.Fatalf("run did not trap (oracle=%v)", oracle)
			}
			trap = e.Error()
		}()
		m.Run()
		return
	}
	fastTrap, vFast := run(false)
	slowTrap, vSlow := run(true)
	if fastTrap != slowTrap || fastTrap != "exec: a subscript 4 out of range [0,4) in dim 1" {
		t.Errorf("trap text: bytecode %q, oracle %q", fastTrap, slowTrap)
	}
	for addr := int64(0); addr < 64; addr += 8 {
		if a, b := vFast.Peek(addr), vSlow.Peek(addr); a != b {
			t.Errorf("memory diverged at %#x: bytecode %#x, oracle %#x", addr, a, b)
		}
	}
	// (Not Times: the bytecode checks a subscript before it materializes the
	// statement's charge, so user time at a trap differs on any loop.)
	if a, b := vFast.Stats(), vSlow.Stats(); a != b {
		t.Errorf("vm stats at the trap diverged:\nbytecode %+v\noracle   %+v", a, b)
	}
}

func TestNestBodyShape(t *testing.T) {
	// The shape checks spanSites makes before walking a body: hints and
	// control flow anywhere in it, nested loops and branches included.
	p := ir.NewProgram("shape")
	i, j, s := p.NewLoopVar("i"), p.NewLoopVar("j"), p.NewScalarI("s")
	a := p.NewArrayF("a", ir.Int(64))
	cases := []struct {
		name         string
		body         []ir.Stmt
		hint, branch bool
	}{
		{"flat", []ir.Stmt{ir.StoreF(a, []ir.IExpr{i}, ir.Flt(1))}, false, false},
		{"hint in a nested loop", []ir.Stmt{ir.For(j, ir.Int(0), ir.Int(4), 1,
			ir.Prefetch{Arr: a, Idx: []ir.IExpr{j}, Pages: ir.Int(1)})}, true, false},
		{"branch", []ir.Stmt{ir.If{Cond: ir.CmpI{Op: ir.Lt, A: i, B: ir.Int(2)}, Then: []ir.Stmt{ir.SetI(s, i)}}}, false, true},
		{"release in a branch", []ir.Stmt{ir.If{Cond: ir.CmpI{Op: ir.Lt, A: i, B: ir.Int(2)},
			Else: []ir.Stmt{ir.Release{Arr: a, Idx: []ir.IExpr{i}, Pages: ir.Int(1)}}}}, true, true},
	}
	for _, c := range cases {
		if hint, branch := bodyShape(c.body); hint != c.hint || branch != c.branch {
			t.Errorf("%s: bodyShape = %v,%v, want %v,%v", c.name, hint, branch, c.hint, c.branch)
		}
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
	c5 := p.NewArrayF("c5", np, ir.Int(5))
	it := p.NewLoopVar("it")
	i := p.NewLoopVar("i")
	j := p.NewLoopVar("j")
	k := p.NewLoopVar("k")
	mv := p.NewLoopVar("m")
	g := p.NewLoopVar("g")
	p.Body = []ir.Stmt{
		ir.For(it, ir.Int(0), ir.Int(2), 1,
			ir.For(i, ir.Int(0), np, 1,
				ir.SetF(s, ir.AddF(scalarRef(s), ir.LoadF(a, i))))),
		ir.For(j, ir.Int(0), np, 1,
			ir.SetF(s, ir.AddF(scalarRef(s), ir.LoadF(a, ir.LoadI(key, j))))),
		ir.For(k, ir.Int(0), np, 1,
			ir.For(mv, ir.Int(0), ir.Int(5), 1,
				ir.SetF(s, ir.AddF(scalarRef(s), ir.LoadF(c5, k, mv))))),
		ir.For(g, ir.Int(0), ir.Int(5), 1, // eligible, statically short, nobody to absorb it
			ir.SetF(s, ir.AddF(scalarRef(s), ir.LoadF(a, g)))),
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
		{"k", 0, "page-run", ReasonSpecialized},
		{"m", 1, "kernel", ReasonAbsorbed},
		{"g", 0, "kernel", ReasonShortTrip},
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
	// k accumulates s from five unrolled copies: its chunks stay on the
	// per-iteration span body; i accumulates it from one and runs lanes.
	if got, want := got[3].String(), "loop k        page-run (5 sites, 5× unrolled; carried-scalar)"; got != want {
		t.Errorf("absorbing loop prints %q, want %q", got, want)
	}
	if got, want := got[1].String(), "  loop i        page-run (1 sites; lanes)"; got != want {
		t.Errorf("innermost loop prints %q, want %q", got, want)
	}
	if got[1].Unroll != 1 {
		t.Errorf("innermost page-run loop reports %d copies, want 1", got[1].Unroll)
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
	for r, want := range map[FallbackReason]string{
		ReasonRecording: "recording", ReasonAbsorbed: "absorbed", ReasonShortTrip: "short-trip"} {
		if got := r.String(); got != want {
			t.Errorf("reason %d prints %q, want %q", r, got, want)
		}
	}
}

func TestFallbackReasonStrings(t *testing.T) {
	for r := ReasonSpecialized; r <= ReasonUnsupportedOp; r++ {
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
