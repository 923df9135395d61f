// Differential tests for hint lowering. A hint side is index -> pages ->
// clamp, each evaluated once, on both executors; the shapes here — a
// two-load index, an impure pages expression, a bundle mixing both, a
// subscript that draws from the generator — are the ones where evaluating
// anything a second time would show, in page touches or in generator state.
package exec

import (
	"fmt"
	"testing"

	"repro/internal/hw"
	"repro/internal/ir"
	"repro/internal/stripefs"
)

// twoLoadHintProgram builds the FFT-butterfly-shaped hint: the prefetch
// index sums two loads from an index array, and the second load may land
// on a different page than the first just touched.
func twoLoadHintProgram() *ir.Program {
	const n = 4096 // 8 pages of float64 + 8 pages of int64
	p := ir.NewProgram("hint2load")
	np := p.NewParam("n", n, true)
	a := p.NewArrayF("a", np)
	c := p.NewArrayI("c", np)
	s := p.NewScalarF("s")
	i := p.NewLoopVar("i")
	p.Body = []ir.Stmt{
		ir.For(i, ir.Int(0), ir.SubI(np, ir.Int(1)), 1,
			ir.Prefetch{
				Arr:   a,
				Idx:   []ir.IExpr{ir.AddI(ir.LoadI(c, i), ir.LoadI(c, ir.AddI(i, ir.Int(1))))},
				Pages: ir.Int(2),
			},
			ir.SetF(s, ir.AddF(scalarRef(s), ir.LoadF(a, i))),
		),
	}
	return p
}

func seedTwoLoad(f *stripefs.File, p *ir.Program) {
	ps := hw.Default().PageSize
	SeedF64(f, ps, p.ArrayByName("a"), func(i int64) float64 { return float64(i%97) * 0.5 })
	// Index pairs that hop around the array, so consecutive hint sides
	// land on different pages.
	SeedI64(f, ps, p.ArrayByName("c"), func(i int64) int64 { return (i * 709) % 2048 })
}

func TestHintTwoLoadIndex(t *testing.T) {
	// The loop's only array traffic besides the hint is a streaming sum;
	// the hint makes the loop a kernel (not span) candidate, so no
	// specialized sites are required for the test to be meaningful.
	env, _ := runDifferentialSites(t, twoLoadHintProgram, 8, seedTwoLoad, false)
	if env.Floats[0] == 0 {
		t.Fatal("sum is zero — the loop body never ran")
	}
}

// impurePagesProgram builds a 2-D strided release whose page count is
// itself loaded from memory: the pages expression is impure and may
// fault between the index and the clamp.
func impurePagesProgram() *ir.Program {
	const rows, cols = 32, 512 // 32 pages of float64
	p := ir.NewProgram("hintimpure")
	pr := p.NewParam("r", rows, true)
	pc := p.NewParam("c", cols, true)
	a := p.NewArrayF("a", pr, pc)
	pg := p.NewArrayI("pg", pr)
	s := p.NewScalarF("s")
	i := p.NewLoopVar("i")
	j := p.NewLoopVar("j")
	p.Body = []ir.Stmt{
		ir.For(i, ir.Int(0), pr, 1,
			ir.For(j, ir.Int(0), pc, 1,
				ir.SetF(s, ir.AddF(scalarRef(s), ir.LoadF(a, i, j))),
			),
			ir.Release{
				Arr:   a,
				Idx:   []ir.IExpr{i, ir.Int(0)},
				Pages: ir.LoadI(pg, i),
			},
		),
	}
	return p
}

func seedImpurePages(f *stripefs.File, p *ir.Program) {
	ps := hw.Default().PageSize
	SeedF64(f, ps, p.ArrayByName("a"), func(i int64) float64 { return float64(i % 13) })
	SeedI64(f, ps, p.ArrayByName("pg"), func(i int64) int64 { return 1 + i%2 })
}

func TestHintImpurePages(t *testing.T) {
	// The inner sum loop must still get the span driver (requireSites):
	// the hint lives in the outer kernel loop around it.
	runDifferentialSites(t, impurePagesProgram, 16, seedImpurePages, true)
}

// mixedHintProgram bundles a pure prefetch with an impure-pages release in
// one PrefetchRelease: the two sides share a dispatch.
func mixedHintProgram() *ir.Program {
	const n = 4096
	p := ir.NewProgram("hintmixed")
	np := p.NewParam("n", n, true)
	a := p.NewArrayF("a", np)
	c := p.NewArrayI("c", np)
	s := p.NewScalarF("s")
	i := p.NewLoopVar("i")
	p.Body = []ir.Stmt{
		ir.For(i, ir.Int(0), np, 1,
			ir.PrefetchRelease{
				PfArr: a, PfIdx: []ir.IExpr{ir.AddI(i, ir.Int(512))}, PfPages: ir.Int(4),
				RelArr: a, RelIdx: []ir.IExpr{i}, RelPages: ir.LoadI(c, i),
			},
			ir.SetF(s, ir.AddF(scalarRef(s), ir.LoadF(a, i))),
		),
	}
	return p
}

func seedMixed(f *stripefs.File, p *ir.Program) {
	ps := hw.Default().PageSize
	SeedF64(f, ps, p.ArrayByName("a"), func(i int64) float64 { return float64(i) })
	SeedI64(f, ps, p.ArrayByName("c"), func(i int64) int64 { return i % 3 })
}

func TestHintMixedPrefetchRelease(t *testing.T) {
	runDifferentialSites(t, mixedHintProgram, 8, seedMixed, false)
}

// TestHintSubscriptEvaluatedOnce pins the reference semantics itself: a
// hint computes its address once, like the call it models (PAPER.md §1).
func TestHintSubscriptEvaluatedOnce(t *testing.T) {
	// (i) A subscript that draws from the generator: each executed hint
	// advances it exactly once, on the bytecode and on the oracle.
	const n = 1000
	mk := func() *ir.Program {
		p := ir.NewProgram("hintrand")
		np := p.NewParam("n", n, true)
		a := p.NewArrayF("a", np)
		s := p.NewScalarF("s")
		i := p.NewLoopVar("i")
		draw := ir.IFromF{X: ir.MulF(ir.Call(ir.Randlc), ir.Flt(n))}
		p.Body = []ir.Stmt{
			ir.For(i, ir.Int(0), np, 1,
				ir.Prefetch{Arr: a, Idx: []ir.IExpr{draw}, Pages: ir.Int(2)},
				ir.SetF(s, ir.AddF(scalarRef(s), ir.LoadF(a, i)))),
		}
		return p
	}
	want := &Env{}
	want.SetSeed(mk().Seed)
	for k := 0; k < n; k++ {
		want.randlc()
	}
	for _, oracle := range []bool{false, true} {
		_, _, _, m := buildEither(t, framed(8), mk(), oracle)
		if got := m.Run().rngX; got != want.rngX || got == uint64(mk().Seed) {
			t.Errorf("oracle=%v: generator at %d after %d hints, want %d (one draw each)",
				oracle, got, n, want.rngX)
		}
	}

	// (ii) The two-load index out of core: every load in a subscript runs
	// once per hint on both executors, so they touch the same pages at the
	// same ticks.
	var runs [2]string
	for i, oracle := range []bool{false, true} {
		p := twoLoadHintProgram()
		c, v, file, m := buildEither(t, framed(8), p, oracle)
		seedTwoLoad(file, p)
		m.Run()
		v.Finish()
		runs[i] = fmt.Sprintf("elapsed %d stats %+v", c.Now(), v.Stats())
	}
	if runs[0] != runs[1] {
		t.Errorf("two-load index diverged:\nbytecode %s\noracle   %s", runs[0], runs[1])
	}
}

// lastPageHintProgram builds the fused indirect-prefetch shape
// (opHintLoad1): a four-page prefetch of x at x[c[i]], beside a stream
// over y, which is laid out right after x. Subscripts near x's end make
// the prefetch clamp at x's last page; one page too many would reach y.
func lastPageHintProgram() *ir.Program {
	const n = 4096 // 8 pages per array
	p := ir.NewProgram("hintlast")
	np := p.NewParam("n", n, true)
	c := p.NewArrayI("c", np)
	x := p.NewArrayF("x", np)
	y := p.NewArrayF("y", np)
	s := p.NewScalarF("s")
	i := p.NewLoopVar("i")
	p.Body = []ir.Stmt{
		ir.For(i, ir.Int(0), np, 1,
			ir.Prefetch{Arr: x, Idx: []ir.IExpr{ir.LoadI(c, i)}, Pages: ir.Int(4)},
			ir.SetF(s, ir.AddF(scalarRef(s), ir.LoadF(y, i))),
		),
	}
	return p
}

// lastPageTargets are the subscripts c cycles through: x's last element
// and its last page's first (clamp to one page), two and three pages from
// the end (clamp to two and three), exactly four pages from the end (no
// clamp), and subscripts clamped into x from above and below.
var lastPageTargets = []int64{4095, 3584, 3583, 2560, 2048, 5000, -3}

func seedLastPage(f *stripefs.File, p *ir.Program) {
	ps := hw.Default().PageSize
	SeedI64(f, ps, p.ArrayByName("c"), func(i int64) int64 { return lastPageTargets[i%int64(len(lastPageTargets))] })
	SeedF64(f, ps, p.ArrayByName("y"), func(i int64) float64 { return float64(i % 7) })
}

// TestHintLoad1ClampsAtLastPage reaches opHintLoad1's multi-page clamp
// with the target on the prefetched array's last page, and on the pages
// before it. The pages the run-time layer is handed are counted against a
// plain-Go replay of the clamp, and the run is held to the oracle tick for
// tick: a clamp one page short or one page long fails both.
func TestHintLoad1ClampsAtLastPage(t *testing.T) {
	const frames = 8
	p := framed(frames)
	prog := lastPageHintProgram()
	_, v, file, layer := system(t, p, prog)
	art, err := Compile(prog, p.PageSize, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := art.Bind(v, layer)
	if err != nil {
		t.Fatal(err)
	}
	fused := false
	for _, in := range m.code {
		fused = fused || (in.op == opHintLoad1 && m.haux[in.b].pages == 4)
	}
	if !fused {
		t.Fatal("the prefetch was not lowered to a four-page opHintLoad1")
	}
	seedLastPage(file, prog)
	m.Run()

	x := prog.ArrayByName("x")
	perPage := p.PageSize / ir.ElemSize
	var want int64
	for i := int64(0); i < x.Elems; i++ {
		li := min(max(lastPageTargets[i%int64(len(lastPageTargets))], 0), x.Elems-1)
		want += min(4, x.Elems/perPage-li/perPage)
	}
	if got := layer.Stats().InsertedPages; got != want {
		t.Errorf("hints named %d pages, want %d (clamped at x's last page)", got, want)
	}
	runDifferentialSites(t, lastPageHintProgram, frames, seedLastPage, false)
}

// TestHintLoweringNoClosureFallback proves the structural claim behind
// the differentials: every hint statement is lowered to bytecode (the
// enclosing loop reports the kernel driver and counts its hints), and
// the bytecode carries no closure-call slot at all — page-run loops are
// bytecode too.
func TestHintLoweringNoClosureFallback(t *testing.T) {
	cases := []struct {
		name string
		mk   func() *ir.Program
	}{
		{"two-load-index", twoLoadHintProgram},
		{"impure-pages", impurePagesProgram},
		{"mixed-bundle", mixedHintProgram},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, _, m := buildWith(t, tc.mk(), 16, Options{})
			hints, kernels := 0, 0
			for _, r := range m.Reports() {
				hints += r.Hints
				switch r.Driver {
				case "kernel":
					kernels++
				case "closure":
					t.Errorf("loop %s fell back to the closure driver (%s)", r.Var, r.Reason)
				}
			}
			if hints != 1 {
				t.Errorf("lowered hints = %d, want 1 (reports: %v)", hints, m.Reports())
			}
			if kernels == 0 {
				t.Error("no loop reports the kernel driver — hint lowering never engaged")
			}
			art, err := Compile(tc.mk(), hw.Default().PageSize, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if got := art.CallSites(); got != 0 {
				t.Errorf("CallSites = %d, want 0", got)
			}
		})
	}
}
