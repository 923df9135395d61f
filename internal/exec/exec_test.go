package exec

import (
	"math"
	"testing"

	"repro/internal/hw"
	"repro/internal/ir"
	"repro/internal/sim"
	"repro/internal/stripefs"
	"repro/internal/vm"
)

// build compiles prog onto a fresh simulated system with the given number
// of frames and returns everything needed by a test.
func build(t testing.TB, prog *ir.Program, frames int64) (*sim.Clock, *vm.VM, *stripefs.File, *Machine) {
	t.Helper()
	c, v, file, layer := system(t, framed(frames), prog)
	m, err := New(prog, v, layer)
	if err != nil {
		t.Fatal(err)
	}
	return c, v, file, m
}

// sumProgram builds: for i in [0,n): s += a[i], with a[i] seeded to i.
func sumProgram(n int64) (*ir.Program, ir.FScalar) {
	p := ir.NewProgram("sum")
	np := p.NewParam("n", n, true)
	a := p.NewArrayF("a", np)
	s := p.NewScalarF("s")
	i := p.NewLoopVar("i")
	p.Body = []ir.Stmt{
		ir.For(i, ir.Int(0), np, 1,
			ir.SetF(s, ir.AddF(ir.FScalar{Slot: s.Slot, Name: s.Name}, ir.LoadF(a, i))),
		),
	}
	return p, s
}

func TestSumLoop(t *testing.T) {
	const n = 2000
	prog, s := sumProgram(n)
	_, _, file, m := build(t, prog, 64)
	SeedF64(file, hw.Default().PageSize, prog.Arrays[0], func(i int64) float64 { return float64(i) })
	env := m.Run()
	want := float64(n*(n-1)) / 2
	if got := env.Floats[s.Slot]; got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
}

func TestComputationChargesUserTime(t *testing.T) {
	prog, _ := sumProgram(1000)
	_, v, file, m := build(t, prog, 64)
	SeedF64(file, hw.Default().PageSize, prog.Arrays[0], func(int64) float64 { return 1 })
	m.Run()
	ts := v.Times()
	// ~1000 iterations × a handful of ops × 50ns each.
	if ts.User < 100*sim.Microsecond || ts.User > 10*sim.Millisecond {
		t.Fatalf("user time %v outside plausible range", ts.User)
	}
	if ts.SysFault == 0 {
		t.Fatal("cold run should have faulted")
	}
}

func TestIndirectAccess(t *testing.T) {
	// rank[key[i]] += 1 over a permutation: every rank must end at 1.
	const n = 1024
	p := ir.NewProgram("indirect")
	np := p.NewParam("n", n, true)
	key := p.NewArrayI("key", np)
	rank := p.NewArrayF("rank", np)
	i := p.NewLoopVar("i")
	idx := []ir.IExpr{ir.LoadI(key, i)}
	p.Body = []ir.Stmt{
		ir.For(i, ir.Int(0), np, 1,
			ir.StoreF(rank, idx, ir.AddF(ir.LoadF(rank, idx[0]), ir.Flt(1))),
		),
	}
	_, v, file, m := build(t, p, 64)
	SeedI64(file, hw.Default().PageSize, key, func(i int64) int64 { return (i*7 + 3) % n })
	m.Run()
	for k := int64(0); k < n; k++ {
		if got := v.PeekF64(rank.Base + k*ir.ElemSize); got != 1 {
			t.Fatalf("rank[%d] = %v, want 1 (permutation property)", k, got)
		}
	}
}

func TestIfAndScalars(t *testing.T) {
	// Count elements above 0.5.
	const n = 512
	p := ir.NewProgram("count")
	np := p.NewParam("n", n, true)
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
	_, _, file, m := build(t, p, 64)
	SeedF64(file, hw.Default().PageSize, a, func(i int64) float64 {
		if i%4 == 0 {
			return 0.9
		}
		return 0.1
	})
	env := m.Run()
	if got := env.Ints[cnt.Slot]; got != n/4 {
		t.Fatalf("count = %d, want %d", got, n/4)
	}
}

func TestPrefetchStatementReachesOS(t *testing.T) {
	// A block prefetch ahead of a streaming loop must turn faults into
	// prefetched hits.
	const n = 4096 // 8 pages of float64
	p := ir.NewProgram("pf")
	np := p.NewParam("n", n, true)
	a := p.NewArrayF("a", np)
	s := p.NewScalarF("s")
	i := p.NewLoopVar("i")
	p.Body = []ir.Stmt{
		ir.Prefetch{Arr: a, Idx: []ir.IExpr{ir.Int(0)}, Pages: ir.Int(8)},
		ir.For(i, ir.Int(0), np, 1,
			ir.SetF(s, ir.AddF(ir.FScalar{Slot: s.Slot, Name: s.Name}, ir.LoadF(a, i))),
		),
	}
	_, v, file, m := build(t, p, 64)
	SeedF64(file, hw.Default().PageSize, a, func(int64) float64 { return 1 })
	env := m.Run()
	if env.Floats[s.Slot] != n {
		t.Fatalf("sum wrong: %v", env.Floats[s.Slot])
	}
	st := v.Stats()
	if st.PrefetchIssued != 8 {
		t.Fatalf("PrefetchIssued = %d, want 8", st.PrefetchIssued)
	}
	if st.NonPrefetchedFault != 0 {
		t.Fatalf("NonPrefetchedFault = %d, want 0 (everything was prefetched)", st.NonPrefetchedFault)
	}
	if st.PrefetchedHits+st.PrefetchedFaults != 8 {
		t.Fatalf("classified faults = %d, want 8", st.PrefetchedHits+st.PrefetchedFaults)
	}
}

func TestHintClampingPastArrayEnd(t *testing.T) {
	// Prefetching beyond the array's last page must clamp, not panic.
	const n = 512 // one page
	p := ir.NewProgram("clamp")
	np := p.NewParam("n", n, true)
	a := p.NewArrayF("a", np)
	i := p.NewLoopVar("i")
	s := p.NewScalarF("s")
	p.Body = []ir.Stmt{
		ir.For(i, ir.Int(0), np, 1,
			// Wildly out-of-range prefetch every iteration.
			ir.Prefetch{Arr: a, Idx: []ir.IExpr{ir.AddI(i, ir.Int(100000))}, Pages: ir.Int(4)},
			ir.SetF(s, ir.LoadF(a, i)),
		),
	}
	_, _, file, m := build(t, p, 64)
	SeedF64(file, hw.Default().PageSize, a, func(int64) float64 { return 2 })
	m.Run() // must not panic
}

func TestReleaseStatementFreesMemory(t *testing.T) {
	const n = 4096 // 8 pages
	p := ir.NewProgram("rel")
	np := p.NewParam("n", n, true)
	a := p.NewArrayF("a", np)
	s := p.NewScalarF("s")
	i := p.NewLoopVar("i")
	perPage := int64(512)
	p.Body = []ir.Stmt{
		ir.For(i, ir.Int(0), np, 1,
			ir.SetF(s, ir.AddF(ir.FScalar{Slot: s.Slot, Name: s.Name}, ir.LoadF(a, i))),
		),
		// Release the whole array afterwards.
		ir.Release{Arr: a, Idx: []ir.IExpr{ir.Int(0)}, Pages: ir.DivI(np, ir.Int(perPage))},
	}
	_, v, file, m := build(t, p, 64)
	SeedF64(file, hw.Default().PageSize, a, func(int64) float64 { return 1 })
	m.Run()
	if got := v.Stats().ReleasedPages; got != 8 {
		t.Fatalf("ReleasedPages = %d, want 8", got)
	}
}

func TestBoundsCheckedApplicationAccess(t *testing.T) {
	p := ir.NewProgram("oob")
	np := p.NewParam("n", 16, true)
	a := p.NewArrayF("a", np)
	i := p.NewLoopVar("i")
	s := p.NewScalarF("s")
	p.Body = []ir.Stmt{
		ir.For(i, ir.Int(0), ir.Int(32), 1, // runs past the array
			ir.SetF(s, ir.LoadF(a, i)),
		),
	}
	_, _, _, m := build(t, p, 64)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-bounds application access did not panic")
		}
	}()
	m.Run()
}

func TestRandlcMatchesNASReference(t *testing.T) {
	// The NAS EP generator with seed 314159265 and a = 5^13 has a
	// well-defined stream; check basic properties and determinism.
	e1 := &Env{}
	e1.SetSeed(314159265)
	e2 := &Env{}
	e2.SetSeed(314159265)
	var prev float64
	for i := 0; i < 1000; i++ {
		a, b := e1.randlc(), e2.randlc()
		if a != b {
			t.Fatal("randlc not deterministic")
		}
		if a <= 0 || a >= 1 {
			t.Fatalf("randlc out of (0,1): %v", a)
		}
		if i > 0 && a == prev {
			t.Fatal("randlc repeated immediately")
		}
		prev = a
	}
	// Mean of uniforms should be near 0.5.
	e1.SetSeed(314159265)
	var sum float64
	const n = 50000
	for i := 0; i < n; i++ {
		sum += e1.randlc()
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("randlc mean %v, want ≈0.5", mean)
	}
}

func TestMultiDimensionalArrays(t *testing.T) {
	// c[i][j] = i*10 + j round-trip through a 2-D array.
	p := ir.NewProgram("md")
	ni := p.NewParam("ni", 20, true)
	nj := p.NewParam("nj", 30, true)
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
	_, v, _, m := build(t, p, 64)
	m.Run()
	for ii := int64(0); ii < 20; ii++ {
		for jj := int64(0); jj < 30; jj++ {
			addr := cArr.Base + (ii*30+jj)*ir.ElemSize
			if got := v.PeekF64(addr); got != float64(ii*10+jj) {
				t.Fatalf("c[%d][%d] = %v, want %v", ii, jj, got, float64(ii*10+jj))
			}
		}
	}
}

func TestIntrinsics(t *testing.T) {
	p := ir.NewProgram("intr")
	s := p.NewScalarF("s")
	p.Body = []ir.Stmt{
		ir.SetF(s, ir.Call(ir.Sqrt, ir.Flt(9))),
	}
	_, _, _, m := build(t, p, 64)
	env := m.Run()
	if env.Floats[s.Slot] != 3 {
		t.Fatalf("sqrt(9) = %v", env.Floats[s.Slot])
	}
}

func TestOutOfCoreStreamFaultsPerPage(t *testing.T) {
	// Streaming 4× memory with 512 float64 per page: exactly one major
	// fault per page, no more.
	const frames = 16
	const pages = 64
	prog, _ := sumProgram(pages * 512)
	_, v, file, m := build(t, prog, frames)
	SeedF64(file, hw.Default().PageSize, prog.Arrays[0], func(int64) float64 { return 1 })
	m.Run()
	if got := v.Stats().MajorFaults; got != pages {
		t.Fatalf("major faults = %d, want %d (one per page)", got, pages)
	}
}

func TestLoopBoundsWithParamExprs(t *testing.T) {
	// for i in [0, n/2): touch a[2*i] — stride-2 access.
	p := ir.NewProgram("stride")
	np := p.NewParam("n", 1000, true)
	a := p.NewArrayF("a", np)
	s := p.NewScalarF("s")
	i := p.NewLoopVar("i")
	p.Body = []ir.Stmt{
		ir.For(i, ir.Int(0), ir.DivI(np, ir.Int(2)), 1,
			ir.SetF(s, ir.AddF(ir.FScalar{Slot: s.Slot, Name: s.Name}, ir.LoadF(a, ir.MulI(i, ir.Int(2))))),
		),
	}
	_, _, file, m := build(t, p, 64)
	SeedF64(file, hw.Default().PageSize, a, func(i int64) float64 {
		if i%2 == 0 {
			return 1
		}
		return 100
	})
	env := m.Run()
	if got := env.Floats[s.Slot]; got != 500 {
		t.Fatalf("sum of even elements = %v, want 500", got)
	}
}
