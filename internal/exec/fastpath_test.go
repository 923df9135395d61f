package exec

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/ir"
	"repro/internal/rt"
	"repro/internal/sim"
	"repro/internal/stripefs"
	"repro/internal/vm"
)

// buildWith is build with explicit compilation options.
func buildWith(t testing.TB, prog *ir.Program, frames int64, opts Options) (*sim.Clock, *vm.VM, *stripefs.File, *Machine) {
	t.Helper()
	p := hw.Default()
	p.MemoryBytes = frames * p.PageSize
	return buildOn(t, p, prog, opts)
}

// buildOn is buildWith on an explicit machine.
func buildOn(t testing.TB, p hw.Params, prog *ir.Program, opts Options) (*sim.Clock, *vm.VM, *stripefs.File, *Machine) {
	t.Helper()
	c := sim.NewClock()
	fs := stripefs.New(c, p, nil)
	if err := prog.Resolve(p.PageSize); err != nil {
		t.Fatal(err)
	}
	pages := prog.TotalBytes(p.PageSize) / p.PageSize
	if pages == 0 {
		pages = 1
	}
	file, err := fs.Create(prog.Name, pages)
	if err != nil {
		t.Fatal(err)
	}
	v := vm.New(c, p, file)
	layer := rt.Register(v, true)
	m, err := NewWith(prog, v, layer, opts)
	if err != nil {
		t.Fatal(err)
	}
	return c, v, file, m
}

// runDifferential executes prog twice on fresh systems — fast path on and
// off — with identical seeding, and asserts the two simulations are
// tick-identical: same scalars, same memory image, same time breakdown,
// same event counts.
func runDifferential(t *testing.T, mk func() *ir.Program, frames int64,
	seed func(*stripefs.File, *ir.Program)) (*Env, *vm.VM) {
	t.Helper()
	return runDifferentialSites(t, mk, frames, seed, true)
}

// runDifferentialSites is runDifferential with the vacuity check made
// optional, for nests (zero-trip, control flow, scalar-only) where the
// interesting path is the plain kernel bytecode rather than a span body.
func runDifferentialSites(t *testing.T, mk func() *ir.Program, frames int64,
	seed func(*stripefs.File, *ir.Program), requireSites bool) (*Env, *vm.VM) {
	t.Helper()
	progFast, progSlow := mk(), mk()
	_, vFast, fileFast, mFast := buildWith(t, progFast, frames, Options{})
	_, vSlow, fileSlow, mSlow := buildWith(t, progSlow, frames, Options{NoFastPath: true})
	if requireSites && mFast.SpecializedSites() == 0 {
		t.Fatal("fast machine specialized nothing — differential test is vacuous")
	}
	if mSlow.SpecializedSites() != 0 {
		t.Fatal("NoFastPath machine has specialized sites")
	}
	if seed != nil {
		seed(fileFast, progFast)
		seed(fileSlow, progSlow)
	}
	envFast := mFast.Run()
	vFast.Finish()
	envSlow := mSlow.Run()
	vSlow.Finish()

	for i, x := range envFast.Ints {
		if envSlow.Ints[i] != x {
			t.Errorf("int slot %d diverged: fast %d, slow %d", i, x, envSlow.Ints[i])
		}
	}
	for i, f := range envFast.Floats {
		if envSlow.Floats[i] != f {
			t.Errorf("float slot %d diverged: fast %v, slow %v", i, f, envSlow.Floats[i])
		}
	}
	ps := hw.Default().PageSize
	for addr, end := int64(0), vFast.AllocatedPages()*ps; addr < end; addr += 8 {
		if a, b := vFast.Peek(addr), vSlow.Peek(addr); a != b {
			t.Fatalf("memory diverged at %#x: fast %#x, slow %#x", addr, a, b)
		}
	}
	if a, b := vFast.Times(), vSlow.Times(); a != b {
		t.Errorf("time breakdown diverged:\nfast %+v\nslow %+v", a, b)
	}
	if a, b := vFast.Stats(), vSlow.Stats(); a != b {
		t.Errorf("vm stats diverged:\nfast %+v\nslow %+v", a, b)
	}
	if err := vFast.CheckInvariants(); err != nil {
		t.Errorf("fast run invariants: %v", err)
	}
	return envFast, vFast
}

func TestFastPathForwardSum(t *testing.T) {
	const n = 8192 // 16 pages, out of core at 8 frames
	mk := func() *ir.Program {
		p, _ := sumProgram(n)
		return p
	}
	seed := func(f *stripefs.File, p *ir.Program) {
		SeedF64(f, hw.Default().PageSize, p.Arrays[0], func(i int64) float64 { return float64(i) })
	}
	env, _ := runDifferential(t, mk, 8, seed)
	want := float64(n*(n-1)) / 2
	found := false
	for _, f := range env.Floats {
		if f == want {
			found = true
		}
	}
	if !found {
		t.Fatalf("sum %v not found in float slots %v", want, env.Floats)
	}
}

func TestFastPathNegativeStride(t *testing.T) {
	// s += a[n-1-i]: the access walks backwards through pages.
	const n = 4096
	mk := func() *ir.Program {
		p := ir.NewProgram("revsum")
		np := p.NewParam("n", n, true)
		a := p.NewArrayF("a", np)
		s := p.NewScalarF("s")
		i := p.NewLoopVar("i")
		p.Body = []ir.Stmt{
			ir.For(i, ir.Int(0), np, 1,
				ir.SetF(s, ir.AddF(ir.FScalar{Slot: s.Slot, Name: s.Name},
					ir.LoadF(a, ir.SubI(ir.SubI(np, ir.Int(1)), i)))),
			),
		}
		return p
	}
	seed := func(f *stripefs.File, p *ir.Program) {
		SeedF64(f, hw.Default().PageSize, p.Arrays[0], func(i int64) float64 { return float64(i % 97) })
	}
	runDifferential(t, mk, 8, seed)
}

func TestFastPathStridedAndMultiStatement(t *testing.T) {
	// b[2*i] = a[2*i] + a[2*i+1]; s += b[2*i]. Strided loads and a store
	// in one body, with an inter-statement dependency through memory.
	const n = 4096
	mk := func() *ir.Program {
		p := ir.NewProgram("strided")
		np := p.NewParam("n", n, true)
		a := p.NewArrayF("a", np)
		b := p.NewArrayF("b", np)
		s := p.NewScalarF("s")
		i := p.NewLoopVar("i")
		two := func(x ir.IExpr) ir.IExpr { return ir.MulI(x, ir.Int(2)) }
		p.Body = []ir.Stmt{
			ir.For(i, ir.Int(0), ir.DivI(np, ir.Int(2)), 1,
				ir.StoreF(b, []ir.IExpr{two(i)},
					ir.AddF(ir.LoadF(a, two(i)), ir.LoadF(a, ir.AddI(two(i), ir.Int(1))))),
				ir.SetF(s, ir.AddF(ir.FScalar{Slot: s.Slot, Name: s.Name},
					ir.LoadF(b, two(i)))),
			),
		}
		return p
	}
	seed := func(f *stripefs.File, p *ir.Program) {
		SeedF64(f, hw.Default().PageSize, p.Arrays[0], func(i int64) float64 { return float64(i%13) / 7 })
	}
	runDifferential(t, mk, 8, seed)
}

func TestFastPathCrossIterationDependency(t *testing.T) {
	// a[i+1] = a[i]: each iteration reads the previous one's store, so the
	// seed value must propagate through the whole array — including across
	// chunk boundaries, where the read and write sites split pages.
	const n = 2048 // 4 pages
	mk := func() *ir.Program {
		p := ir.NewProgram("chain")
		np := p.NewParam("n", n, true)
		a := p.NewArrayF("a", np)
		i := p.NewLoopVar("i")
		p.Body = []ir.Stmt{
			ir.For(i, ir.Int(0), ir.SubI(np, ir.Int(1)), 1,
				ir.StoreF(a, []ir.IExpr{ir.AddI(i, ir.Int(1))}, ir.LoadF(a, i)),
			),
		}
		return p
	}
	seed := func(f *stripefs.File, p *ir.Program) {
		SeedF64(f, hw.Default().PageSize, p.Arrays[0], func(i int64) float64 {
			if i == 0 {
				return 7
			}
			return float64(-i)
		})
	}
	_, v := runDifferential(t, mk, 8, seed)
	ref := mk()
	if err := ref.Resolve(hw.Default().PageSize); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int64{1, 511, 512, 1024, n - 1} {
		if got := v.PeekF64(ref.Arrays[0].Base + i*ir.ElemSize); got != 7 {
			t.Fatalf("a[%d] = %v, want 7 (store-to-load chain broken)", i, got)
		}
	}
}

func TestFastPathTwoDimensional(t *testing.T) {
	// Row-major traversal of a 2-D array: subscripts affine in the inner
	// variable with an outer-loop-invariant row term.
	mk := func() *ir.Program {
		p := ir.NewProgram("md2")
		ni := p.NewParam("ni", 64, true)
		nj := p.NewParam("nj", 96, true)
		cArr := p.NewArrayF("c", ni, nj)
		i := p.NewLoopVar("i")
		j := p.NewLoopVar("j")
		p.Body = []ir.Stmt{
			ir.For(i, ir.Int(0), ni, 1,
				ir.For(j, ir.Int(0), nj, 1,
					ir.StoreF(cArr, []ir.IExpr{i, j},
						ir.AddF(ir.MulF(ir.FromInt{X: i}, ir.Flt(10)), ir.FromInt{X: j})),
				),
			),
		}
		return p
	}
	_, v := runDifferential(t, mk, 8, nil)
	arr := mk()
	if err := arr.Resolve(hw.Default().PageSize); err != nil {
		t.Fatal(err)
	}
	cArr := arr.Arrays[0]
	for _, ij := range [][2]int64{{0, 0}, {13, 57}, {63, 95}} {
		addr := cArr.Base + (ij[0]*96+ij[1])*ir.ElemSize
		if got, want := v.PeekF64(addr), float64(ij[0]*10+ij[1]); got != want {
			t.Fatalf("c[%d][%d] = %v, want %v", ij[0], ij[1], got, want)
		}
	}
}

func TestFastPathFallbacks(t *testing.T) {
	// Loops the specializer must refuse: indirect subscripts, control
	// flow in the body, induction-variable assignment, and page-or-larger
	// strides. Each program's only loop is ineligible, so the machine must
	// report zero specialized sites — and still run correctly.
	pageElems := hw.Default().PageSize / ir.ElemSize

	cases := []struct {
		name string
		mk   func() *ir.Program
	}{
		{"indirect", func() *ir.Program {
			p := ir.NewProgram("ind")
			np := p.NewParam("n", 512, true)
			key := p.NewArrayI("key", np)
			a := p.NewArrayF("a", np)
			s := p.NewScalarF("s")
			i := p.NewLoopVar("i")
			p.Body = []ir.Stmt{
				ir.For(i, ir.Int(0), np, 1,
					ir.SetF(s, ir.AddF(ir.FScalar{Slot: s.Slot, Name: s.Name},
						ir.LoadF(a, ir.LoadI(key, i)))),
				),
			}
			return p
		}},
		{"control-flow", func() *ir.Program {
			p := ir.NewProgram("ctl")
			np := p.NewParam("n", 512, true)
			a := p.NewArrayF("a", np)
			cnt := p.NewScalarI("cnt")
			i := p.NewLoopVar("i")
			p.Body = []ir.Stmt{
				ir.For(i, ir.Int(0), np, 1,
					ir.If{
						Cond: ir.CmpF{Op: ir.Gt, A: ir.LoadF(a, i), B: ir.Flt(0.5)},
						Then: []ir.Stmt{ir.SetI(cnt, ir.AddI(cnt, ir.Int(1)))},
					},
				),
			}
			return p
		}},
		{"page-stride", func() *ir.Program {
			p := ir.NewProgram("pgstride")
			np := p.NewParam("n", 4*pageElems, true)
			a := p.NewArrayF("a", np)
			s := p.NewScalarF("s")
			i := p.NewLoopVar("i")
			p.Body = []ir.Stmt{
				ir.For(i, ir.Int(0), ir.Int(4), 1,
					ir.SetF(s, ir.LoadF(a, ir.MulI(i, ir.Int(pageElems)))),
				),
			}
			return p
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, file, m := buildWith(t, tc.mk(), 64, Options{})
			if n := m.SpecializedSites(); n != 0 {
				t.Fatalf("ineligible loop specialized %d sites", n)
			}
			if tc.name == "indirect" {
				SeedI64(file, hw.Default().PageSize, m.prog.Arrays[0], func(i int64) int64 { return i % 512 })
			}
			m.Run() // must still execute correctly via the per-element path
		})
	}
}

func TestFastPathEngages(t *testing.T) {
	prog, _ := sumProgram(2000)
	_, _, _, m := build(t, prog, 64)
	if m.SpecializedSites() == 0 {
		t.Fatal("streaming sum loop did not specialize")
	}
	prog2, _ := sumProgram(2000)
	_, _, _, m2 := buildWith(t, prog2, 64, Options{NoFastPath: true})
	if m2.SpecializedSites() != 0 {
		t.Fatal("NoFastPath machine specialized sites")
	}
}

func TestFastPathBoundsPanicMidChunk(t *testing.T) {
	// The subscript leaves the array partway through what would be a
	// single page run: the violation must still panic (via the bounds
	// pre-check falling back to the per-element path).
	p := ir.NewProgram("oob2")
	np := p.NewParam("n", 100, true)
	a := p.NewArrayF("a", np)
	s := p.NewScalarF("s")
	i := p.NewLoopVar("i")
	p.Body = []ir.Stmt{
		ir.For(i, ir.Int(0), ir.Int(150), 1, // overruns a 100-element array in page 0
			ir.SetF(s, ir.LoadF(a, i)),
		),
	}
	_, _, _, m := buildWith(t, p, 64, Options{})
	defer func() {
		if recover() == nil {
			t.Fatal("mid-chunk out-of-bounds access did not panic")
		}
	}()
	m.Run()
}
