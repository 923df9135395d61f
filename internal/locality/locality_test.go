package locality

import (
	"testing"

	"repro/internal/ir"
)

const pageSize = 4096

// figure2 builds the paper's Figure 2(a) nest:
//
//	for i = 0..999 { for j = 0..N-1 { t += c[i][j] }  a[b[i]] += 1 }
//
// with N known (64) by default.
func figure2(nKnown bool) (*ir.Program, *ir.Loop, *ir.Loop) {
	p := ir.NewProgram("fig2")
	n := p.NewParam("N", 64, nKnown)
	a := p.NewArrayF("a", ir.Int(1<<20))
	b := p.NewArrayI("b", ir.Int(1<<20))
	cc := p.NewArrayF("c", ir.Int(1000), n)
	i := p.NewLoopVar("i")
	j := p.NewLoopVar("j")
	t := p.NewScalarF("t")
	inner := ir.For(j, ir.Int(0), n, 1,
		ir.SetF(t, ir.AddF(ir.FScalar{Slot: t.Slot, Name: "t"}, ir.LoadF(cc, i, j))),
	)
	outer := ir.For(i, ir.Int(0), ir.Int(1000), 1,
		inner,
		ir.StoreF(a, []ir.IExpr{ir.LoadI(b, i)},
			ir.AddF(ir.LoadF(a, ir.LoadI(b, i)), ir.Flt(1))),
	)
	p.Body = []ir.Stmt{outer}
	if err := p.Resolve(pageSize); err != nil {
		panic(err)
	}
	return p, outer, inner
}

func findRef(a *Analysis, arr string, write bool) *Ref {
	for _, r := range a.Refs {
		if r.Arr.Name == arr && r.IsWrite == write {
			return r
		}
	}
	return nil
}

func TestClassification(t *testing.T) {
	p, _, _ := figure2(true)
	a := Analyze(p, pageSize, 0)

	if r := findRef(a, "c", false); r == nil || r.Kind != Dense {
		t.Fatalf("c[i][j] classified %v, want dense", r)
	}
	if r := findRef(a, "b", false); r == nil || r.Kind != Dense {
		t.Fatalf("b[i] classified %v, want dense", r)
	}
	if r := findRef(a, "a", true); r == nil || r.Kind != Indirect {
		t.Fatalf("a[b[i]] classified %v, want indirect", r)
	}
}

func TestCoefficients(t *testing.T) {
	p, outer, inner := figure2(true)
	a := Analyze(p, pageSize, 0)
	c := findRef(a, "c", false)
	if c.Coeffs[outer.Slot] != 64 {
		t.Fatalf("c coeff along i = %d, want 64 (row length)", c.Coeffs[outer.Slot])
	}
	if c.Coeffs[inner.Slot] != 1 {
		t.Fatalf("c coeff along j = %d, want 1", c.Coeffs[inner.Slot])
	}
	b := findRef(a, "b", false)
	if b.Coeffs[outer.Slot] != 1 || b.Coeffs[inner.Slot] != 0 {
		t.Fatalf("b coeffs wrong: %v", b.Coeffs)
	}
}

func TestPipelineLoopChoice(t *testing.T) {
	// The crux of §2.3: with N=64 known, one row of c is 512 B < page, so
	// prefetches for c[i][j] must pipeline along i, not j.
	p, outer, _ := figure2(true)
	a := Analyze(p, pageSize, 0)
	c := findRef(a, "c", false)
	if got := a.PipelineLoop(c); got != outer {
		t.Fatalf("c pipelined at %v, want outer i loop", got.Var)
	}
	b := findRef(a, "b", false)
	if got := a.PipelineLoop(b); got != outer {
		t.Fatalf("b pipelined at %v, want outer i loop", got.Var)
	}
	ind := findRef(a, "a", true)
	if got := a.PipelineLoop(ind); got != outer {
		t.Fatalf("a[b[i]] driven by %v, want i loop", got.Var)
	}
}

func TestSymbolicBoundMispipelines(t *testing.T) {
	// With N unknown, the compiler assumes a large trip count and
	// wrongly pipelines c[i][j] along j — the paper's APPBT failure.
	p, _, inner := figure2(false)
	a := Analyze(p, pageSize, 0)
	c := findRef(a, "c", false)
	if got := a.PipelineLoop(c); got != inner {
		t.Fatalf("with unknown N, c pipelined at %v; the modeled mistake requires j", got.Var)
	}
}

func TestFootprint(t *testing.T) {
	p, outer, inner := figure2(true)
	a := Analyze(p, pageSize, 0)
	c := findRef(a, "c", false)
	if fp := a.FootprintUpTo(c, inner); fp != 64*8 {
		t.Fatalf("c footprint within j = %d, want 512", fp)
	}
	if fp := a.FootprintUpTo(c, outer); fp != 1000*64*8 {
		t.Fatalf("c footprint within i = %d, want %d", fp, 1000*64*8)
	}
}

func TestGroupLocalityStencil(t *testing.T) {
	// u[i-1], u[i], u[i+1] must form one group with leader u[i+1] and
	// trailer u[i-1].
	p := ir.NewProgram("stencil")
	n := p.NewParam("n", 100000, true)
	u := p.NewArrayF("u", n)
	w := p.NewArrayF("w", n)
	i := p.NewLoopVar("i")
	p.Body = []ir.Stmt{
		ir.For(i, ir.Int(1), ir.SubI(n, ir.Int(1)), 1,
			ir.StoreF(w, []ir.IExpr{i},
				ir.AddF(ir.LoadF(u, ir.SubI(i, ir.Int(1))),
					ir.AddF(ir.LoadF(u, i), ir.LoadF(u, ir.AddI(i, ir.Int(1)))))),
		),
	}
	if err := p.Resolve(pageSize); err != nil {
		t.Fatal(err)
	}
	a := Analyze(p, pageSize, 0)

	var ug *Group
	for _, g := range a.Groups {
		if g.Arr == u {
			if ug != nil {
				t.Fatal("u refs split into multiple groups")
			}
			ug = g
		}
	}
	if ug == nil || len(ug.Members) != 3 {
		t.Fatalf("u group = %+v, want 3 members", ug)
	}
	if ug.Leader.Const != 1 || ug.Trailer.Const != -1 {
		t.Fatalf("leader const %d / trailer const %d, want +1 / -1", ug.Leader.Const, ug.Trailer.Const)
	}
}

func TestDistantRefsSeparateGroups(t *testing.T) {
	// u[i] and u[i + bigOffset] must not share a group.
	p := ir.NewProgram("split")
	n := p.NewParam("n", 1<<20, true)
	u := p.NewArrayF("u", n)
	w := p.NewArrayF("w", n)
	i := p.NewLoopVar("i")
	half := int64(1 << 19)
	p.Body = []ir.Stmt{
		ir.For(i, ir.Int(0), ir.Int(half), 1,
			ir.StoreF(w, []ir.IExpr{i},
				ir.AddF(ir.LoadF(u, i), ir.LoadF(u, ir.AddI(i, ir.Int(half))))),
		),
	}
	if err := p.Resolve(pageSize); err != nil {
		t.Fatal(err)
	}
	a := Analyze(p, pageSize, 0)
	var groups int
	for _, g := range a.Groups {
		if g.Arr == u {
			groups++
		}
	}
	if groups != 2 {
		t.Fatalf("u refs in %d groups, want 2", groups)
	}
}

func TestOpaqueButterflyUsableAtRowLoop(t *testing.T) {
	// re[row*len + butterfly(j,s)] — nonaffine inner index, affine row
	// term with a whole-page stride: PipelineLoop must pick the row loop.
	p := ir.NewProgram("fft")
	nrows := p.NewParam("nrows", 256, true)
	rowLen := p.NewParam("len", 1024, true) // 8 KB per row
	re := p.NewArrayF("re", ir.MulI(nrows, rowLen))
	row := p.NewLoopVar("row")
	j := p.NewLoopVar("j")
	// Index: row*len + ((j*2) % len) — the modulo defeats affine analysis.
	idx := ir.AddI(ir.MulI(row, rowLen), ir.ModI(ir.MulI(j, ir.Int(2)), rowLen))
	rowLoop := ir.For(row, ir.Int(0), nrows, 1,
		ir.For(j, ir.Int(0), rowLen, 1,
			ir.StoreF(re, []ir.IExpr{idx}, ir.Flt(1)),
		),
	)
	p.Body = []ir.Stmt{rowLoop}
	if err := p.Resolve(pageSize); err != nil {
		t.Fatal(err)
	}
	a := Analyze(p, pageSize, 0)
	r := findRef(a, "re", true)
	if r.Kind != Opaque {
		t.Fatalf("butterfly ref classified %v, want opaque", r.Kind)
	}
	if got := a.PipelineLoop(r); got != rowLoop {
		t.Fatalf("opaque ref pipelined at %v, want row loop", got)
	}
	if r.Coeffs[rowLoop.Slot] != 1024 {
		t.Fatalf("row coefficient %d, want 1024", r.Coeffs[rowLoop.Slot])
	}
}

func TestTinyLoopNotPrefetched(t *testing.T) {
	// A loop over < 1 page of data should get no pipeline loop at all.
	p := ir.NewProgram("tiny")
	u := p.NewArrayF("u", ir.Int(64)) // 512 B
	i := p.NewLoopVar("i")
	s := p.NewScalarF("s")
	p.Body = []ir.Stmt{
		ir.For(i, ir.Int(0), ir.Int(64), 1,
			ir.SetF(s, ir.AddF(ir.FScalar{Slot: s.Slot, Name: "s"}, ir.LoadF(u, i))),
		),
	}
	if err := p.Resolve(pageSize); err != nil {
		t.Fatal(err)
	}
	a := Analyze(p, pageSize, 0)
	r := findRef(a, "u", false)
	if got := a.PipelineLoop(r); got != nil {
		t.Fatalf("tiny ref got pipeline loop %v, want none", got.Var)
	}
}

func TestTripCount(t *testing.T) {
	p := ir.NewProgram("t")
	known := p.NewParam("k", 100, true)
	unknown := p.NewParam("u", 5, false)
	i := p.NewLoopVar("i")
	lk := ir.For(i, ir.Int(0), known, 2)
	lu := ir.For(i, ir.Int(0), unknown, 1)
	a := Analyze(p, pageSize, 0)
	if n, ok := a.TripCount(lk); !ok || n != 50 {
		t.Fatalf("known trip = %d,%v, want 50,true", n, ok)
	}
	if n, ok := a.TripCount(lu); ok || n != 1024 {
		t.Fatalf("unknown trip = %d,%v, want default 1024,false", n, ok)
	}
	// Symbolic differencing: a block of a strip-mined loop, i·k .. (i+1)·k,
	// runs k/2 iterations at step 2 whatever i is; shifted by the unknown
	// u on one side only, it is unknown.
	j := p.NewLoopVar("j")
	lb := ir.For(j, ir.MulI(i, known), ir.MulI(ir.AddI(i, ir.Int(1)), known), 2)
	if n, ok := a.TripCount(lb); !ok || n != 50 {
		t.Fatalf("block trip = %d,%v, want 50,true", n, ok)
	}
	ls := ir.For(j, ir.MulI(i, known), ir.AddI(ir.MulI(i, known), unknown), 1)
	if n, ok := a.TripCount(ls); ok || n != 1024 {
		t.Fatalf("shifted block trip = %d,%v, want default 1024,false", n, ok)
	}
}

func TestEstimateIterOps(t *testing.T) {
	p, outer, inner := figure2(true)
	a := Analyze(p, pageSize, 0)
	innerOps := a.EstimateIterOps(inner)
	outerOps := a.EstimateIterOps(outer)
	if innerOps <= 0 {
		t.Fatal("inner iteration ops not positive")
	}
	// The outer iteration contains the whole 64-trip inner loop.
	if outerOps < 64*innerOps {
		t.Fatalf("outer ops %d < 64×inner %d", outerOps, innerOps)
	}
}
