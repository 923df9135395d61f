package exec

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/hw"
	"repro/internal/ir"
	"repro/internal/sim"
	"repro/internal/vm"
)

// laneRun is one execution of a lane differential: the bytecode's or the
// oracle's.
type laneRun struct {
	env  *Env
	v    *vm.VM
	now  sim.Time
	trap string
}

// laneDiff runs mk on the bytecode and on the oracle, on a machine of the
// given page size and frames with every array seeded by val (nil: a small
// repeating pattern), and holds the two to the same trap, memory image and
// VM counters — and, when nothing trapped, the same final scalars, clock
// and time breakdown. It returns the bytecode run.
func laneDiff(t testing.TB, mk func() *ir.Program, pageSize, frames int64, val func(i int64) float64) laneRun {
	t.Helper()
	if val == nil {
		val = func(i int64) float64 { return float64(i%29)/7 - 3 } // sums that round: reordering shows
	}
	run := func(oracle bool) (r laneRun) {
		p := hw.Default()
		p.PageSize, p.MemoryBytes = pageSize, frames*pageSize
		prog := mk()
		c, v, file, m := buildEither(t, p, prog, oracle)
		for _, arr := range prog.Arrays {
			SeedF64(file, pageSize, arr, val)
		}
		func() {
			defer func() {
				if x := recover(); x != nil {
					r.trap = fmt.Sprint(x)
				}
			}()
			r.env = m.Run()
			v.Finish()
		}()
		r.v, r.now = v, c.Now()
		return r
	}
	fast, slow := run(false), run(true)
	if fast.trap != slow.trap {
		t.Fatalf("trap: bytecode %q, oracle %q", fast.trap, slow.trap)
	}
	for addr, end := int64(0), fast.v.AllocatedPages()*pageSize; addr < end; addr += 8 {
		if a, b := fast.v.Peek(addr), slow.v.Peek(addr); a != b {
			t.Fatalf("memory diverged at %#x: bytecode %#x, oracle %#x", addr, a, b)
		}
	}
	if a, b := fast.v.Stats(), slow.v.Stats(); a != b {
		t.Errorf("vm stats diverged:\nbytecode %+v\noracle   %+v", a, b)
	}
	if fast.trap != "" {
		return fast // a trap strands the bytecode's pending charge (TestNestAbsorbedTrapAtOneCopy)
	}
	for i, x := range fast.env.Ints {
		if y := slow.env.Ints[i]; x != y {
			t.Errorf("int slot %d: bytecode %d, oracle %d", i, x, y)
		}
	}
	for i, x := range fast.env.Floats {
		if y := slow.env.Floats[i]; math.Float64bits(x) != math.Float64bits(y) {
			t.Errorf("float slot %d: bytecode %v, oracle %v", i, x, y)
		}
	}
	if fast.now != slow.now || fast.v.Times() != slow.v.Times() {
		t.Errorf("clock diverged: bytecode %d %+v, oracle %d %+v", fast.now, fast.v.Times(), slow.now, slow.v.Times())
	}
	return fast
}

// lanesEngaged fails t unless the run's chunks ran lane-wise exactly when
// want says so.
func lanesEngaged(t testing.TB, r laneRun, want bool) {
	t.Helper()
	if r.env.Span.Chunks == 0 {
		t.Fatalf("no chunk committed — the differential is vacuous: %+v", r.env.Span)
	}
	if got := r.env.Span.LaneChunks > 0; got != want {
		t.Errorf("lane-wise chunks: %+v, want lanes %v", r.env.Span, want)
	}
}

const lanePage = 4096

// TestLaneRecurrences: a store and a load of one array d iterations apart
// cap the strips at d; at d = 1 (under laneMinCap) the entry runs the
// per-iteration span body. Both the true dependence (reading what an
// earlier iteration stored) and the anti-dependence (reading what a later
// one overwrites) must come out as the oracle's.
func TestLaneRecurrences(t *testing.T) {
	for _, d := range []int64{1, 2, 7} {
		for _, ahead := range []bool{false, true} {
			t.Run(fmt.Sprintf("d=%d/ahead=%v", d, ahead), func(t *testing.T) {
				mk := func() *ir.Program {
					p := ir.NewProgram("rec")
					np := p.NewParam("n", 3000, true)
					a := p.NewArrayF("a", np)
					i := p.NewLoopVar("i")
					var other, lo, hi ir.IExpr = ir.SubI(i, ir.Int(d)), ir.Int(d), np
					if ahead {
						other, lo, hi = ir.AddI(i, ir.Int(d)), ir.Int(0), ir.SubI(np, ir.Int(d))
					}
					p.Body = []ir.Stmt{ir.For(i, lo, hi, 1,
						ir.StoreF(a, []ir.IExpr{i}, ir.SubF(ir.LoadF(a, i), ir.MulF(ir.Flt(0.3), ir.LoadF(a, other)))))}
					return p
				}
				lanesEngaged(t, laneDiff(t, mk, lanePage, 8, nil), d >= laneMinCap)
			})
		}
	}
}

// TestLaneButterflyOffset is FFT's butterfly with the pair offset h apart
// from the trip count: strips are capped at h, and h = 1 runs per
// iteration.
func TestLaneButterflyOffset(t *testing.T) {
	for _, h := range []int64{1, 2, 3, laneW - 1, 96} {
		t.Run(fmt.Sprintf("h=%d", h), func(t *testing.T) {
			mk := func() *ir.Program {
				p := ir.NewProgram("bfly")
				x := p.NewArrayF("x", ir.Int(96+h))
				u, w := p.NewScalarF("u"), p.NewScalarF("w")
				j := p.NewLoopVar("j")
				p.Body = []ir.Stmt{ir.For(j, ir.Int(0), ir.Int(96), 1,
					ir.SetF(u, ir.LoadF(x, j)),
					ir.SetF(w, ir.MulF(ir.Flt(0.5), ir.LoadF(x, ir.AddI(j, ir.Int(h))))),
					ir.StoreF(x, []ir.IExpr{j}, ir.AddF(scalarRef(u), scalarRef(w))),
					ir.StoreF(x, []ir.IExpr{ir.AddI(j, ir.Int(h))}, ir.SubF(scalarRef(u), scalarRef(w))))}
				return p
			}
			// Twice: the first pass faults the pages in.
			twice := func() *ir.Program {
				p := mk()
				r := p.NewLoopVar("r")
				p.Body = []ir.Stmt{ir.For(r, ir.Int(0), ir.Int(2), 1, p.Body...)}
				return p
			}
			lanesEngaged(t, laneDiff(t, twice, lanePage, 8, nil), h >= laneMinCap)
		})
	}
}

// TestLaneEqualAddress: a load and a store of one element in the same
// iteration, in either order, need no cap.
func TestLaneEqualAddress(t *testing.T) {
	mk := func(writeFirst bool) func() *ir.Program {
		return func() *ir.Program {
			p := ir.NewProgram("same")
			np := p.NewParam("n", 2000, true)
			a, b, c := p.NewArrayF("a", np), p.NewArrayF("b", np), p.NewArrayF("c", np)
			i := p.NewLoopVar("i")
			body := []ir.Stmt{ir.StoreF(a, []ir.IExpr{i}, ir.AddF(ir.LoadF(a, i), ir.Flt(1)))}
			if writeFirst {
				body = []ir.Stmt{ir.StoreF(a, []ir.IExpr{i}, ir.MulF(ir.LoadF(b, i), ir.Flt(2))),
					ir.StoreF(c, []ir.IExpr{i}, ir.AddF(ir.LoadF(a, i), ir.Flt(1)))}
			}
			p.Body = []ir.Stmt{ir.For(i, ir.Int(0), np, 1, body...)}
			return p
		}
	}
	for _, writeFirst := range []bool{false, true} {
		lanesEngaged(t, laneDiff(t, mk(writeFirst), lanePage, 8, nil), true)
	}
}

// TestLaneStaysPerIteration: each static rule keeps its body on the
// per-iteration span body, names itself in the report, and the run stays
// the oracle's.
func TestLaneStaysPerIteration(t *testing.T) {
	type shape func(p *ir.Program, a, b *ir.Array, i ir.ISlot, s ir.FScalar) []ir.Stmt
	cases := []struct {
		name  string
		body  shape
		wants FallbackReason
	}{
		{"mixed-delta", func(p *ir.Program, a, b *ir.Array, i ir.ISlot, s ir.FScalar) []ir.Stmt {
			return []ir.Stmt{ir.StoreF(a, []ir.IExpr{ir.MulI(i, ir.Int(2))}, ir.AddF(ir.LoadF(a, i), ir.Flt(1)))}
		}, ReasonMixedDelta},
		{"two-draws", func(p *ir.Program, a, b *ir.Array, i ir.ISlot, s ir.FScalar) []ir.Stmt {
			return []ir.Stmt{ir.StoreF(a, []ir.IExpr{i}, ir.Call(ir.Randlc)), ir.StoreF(b, []ir.IExpr{i}, ir.Call(ir.Randlc))}
		}, ReasonTwoDraws},
		{"accumulated-twice", func(p *ir.Program, a, b *ir.Array, i ir.ISlot, s ir.FScalar) []ir.Stmt {
			return []ir.Stmt{ir.SetF(s, ir.AddF(scalarRef(s), ir.LoadF(a, i))), ir.SetF(s, ir.AddF(scalarRef(s), ir.LoadF(b, i)))}
		}, ReasonCarriedScalar},
		{"read-and-written", func(p *ir.Program, a, b *ir.Array, i ir.ISlot, s ir.FScalar) []ir.Stmt {
			return []ir.Stmt{ir.SetF(s, ir.AddF(ir.MulF(scalarRef(s), ir.Flt(0.5)), ir.LoadF(a, i)))}
		}, ReasonCarriedScalar},
		{"int-divide", func(p *ir.Program, a, b *ir.Array, i ir.ISlot, s ir.FScalar) []ir.Stmt {
			z := p.NewParam("z", 3, true)
			return []ir.Stmt{ir.StoreF(a, []ir.IExpr{i}, ir.AddF(ir.LoadF(b, i), ir.FromInt{X: ir.DivI(i, z)}))}
		}, ReasonIntDivide},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mk := func() *ir.Program {
				p := ir.NewProgram(tc.name)
				np := p.NewParam("n", 1500, true)
				a, b := p.NewArrayF("a", ir.MulI(np, ir.Int(2))), p.NewArrayF("b", np)
				s := p.NewScalarF("s")
				i := p.NewLoopVar("i")
				p.Body = []ir.Stmt{ir.For(i, ir.Int(0), np, 1, tc.body(p, a, b, i, s)...)}
				return p
			}
			_, _, _, m := buildWith(t, mk(), 8, Options{})
			if r := loopReport(t, m, "i"); r.Driver != "page-run" || r.Lanes || r.LaneReason != tc.wants {
				t.Errorf("report %s, want page-run without lanes: %s", r, tc.wants)
			}
			lanesEngaged(t, laneDiff(t, mk, lanePage, 8, nil), false)
		})
	}
}

// TestLaneIntDivideTrap: a division by an invariant zero traps in the first
// iteration of the first committed chunk, after that iteration's store —
// the oracle's trap, text and partial effects.
func TestLaneIntDivideTrap(t *testing.T) {
	mk := func() *ir.Program {
		p := ir.NewProgram("div0")
		np := p.NewParam("n", 1500, true)
		z := p.NewParam("z", 0, true)
		a, b := p.NewArrayF("a", np), p.NewArrayF("b", np)
		i, r := p.NewLoopVar("i"), p.NewLoopVar("r")
		p.Body = []ir.Stmt{
			ir.For(r, ir.Int(0), np, 1, ir.StoreF(a, []ir.IExpr{r}, ir.Flt(0)), ir.StoreF(b, []ir.IExpr{r}, ir.Flt(2))), // pages in, hot
			ir.For(i, ir.Int(0), np, 1,
				ir.StoreF(a, []ir.IExpr{i}, ir.AddF(ir.LoadF(b, i), ir.Flt(1))),
				ir.StoreF(b, []ir.IExpr{i}, ir.FromInt{X: ir.DivI(i, z)}))}
		return p
	}
	if r := laneDiff(t, mk, lanePage, 64, nil); r.trap != "runtime error: integer divide by zero" {
		t.Fatalf("trap %q", r.trap)
	}
}

// TestLaneNaNMinMax: fmin and fmax keep the oracle's asymmetry lane by lane
// (x < y ? x : y — a NaN on the left yields the right operand).
func TestLaneNaNMinMax(t *testing.T) {
	mk := func() *ir.Program {
		p := ir.NewProgram("nan")
		np := p.NewParam("n", 1200, true)
		a, b, c := p.NewArrayF("a", np), p.NewArrayF("b", np), p.NewArrayF("c", np)
		i := p.NewLoopVar("i")
		ai, bi := ir.LoadF(a, i), ir.LoadF(b, ir.SubI(ir.SubI(np, ir.Int(1)), i))
		p.Body = []ir.Stmt{ir.For(i, ir.Int(0), np, 1,
			ir.StoreF(c, []ir.IExpr{i}, ir.AddF(ir.FBin{Op: ir.FMinOp, A: ai, B: bi}, ir.FBin{Op: ir.FMaxOp, A: bi, B: ai})))}
		return p
	}
	nan := func(i int64) float64 {
		if i%3 == 0 || i%7 == 0 {
			return math.NaN()
		}
		return float64(i%11) - 5
	}
	lanesEngaged(t, laneDiff(t, mk, lanePage, 8, nan), true)
}

// TestLaneNegativeStride: backward walks whose runs end on a page edge,
// loads and stores at two strides.
func TestLaneNegativeStride(t *testing.T) {
	words := int64(lanePage / ir.ElemSize)
	mk := func() *ir.Program {
		p := ir.NewProgram("back")
		np := p.NewParam("n", 3*words, true)
		a, b := p.NewArrayF("a", np), p.NewArrayF("b", ir.MulI(np, ir.Int(2)))
		i := p.NewLoopVar("i")
		back := ir.SubI(ir.SubI(np, ir.Int(1)), i)
		p.Body = []ir.Stmt{ir.For(i, ir.Int(0), np, 1,
			ir.StoreF(a, []ir.IExpr{back}, ir.AddF(ir.LoadF(a, back), ir.LoadF(b, ir.MulI(back, ir.Int(2))))),
			ir.StoreF(b, []ir.IExpr{ir.MulI(back, ir.Int(2))}, ir.LoadF(a, back)))}
		return p
	}
	lanesEngaged(t, laneDiff(t, mk, lanePage, 8, nil), true)
}

// TestLaneChunkLengths runs chunks of 2, of laneW, of laneW+1 and of a whole
// page: an array walked twice from a page boundary. The first pass faults
// each page in on the per-element body (a page holding two iterations has
// one left, too few for a chunk); the second runs each page as one chunk.
func TestLaneChunkLengths(t *testing.T) {
	words := int64(lanePage / ir.ElemSize)
	for _, tc := range []struct {
		name                string
		trip, delta         int64
		laneChunks, laneIts int64
	}{
		{"2", 16, words / 2, 8, 16},
		{"W", laneW, 1, 2, 2*laneW - 1},
		{"W+1", laneW + 1, 1, 2, 2*laneW + 1},
		{"page", words, 1, 2, 2*words - 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mk := func() *ir.Program {
				p := ir.NewProgram("chunks")
				a := p.NewArrayF("a", ir.Int(tc.trip*tc.delta))
				s := p.NewScalarF("s")
				r, i := p.NewLoopVar("r"), p.NewLoopVar("i")
				at := ir.MulI(i, ir.Int(tc.delta))
				p.Body = []ir.Stmt{ir.For(r, ir.Int(0), ir.Int(2), 1, ir.For(i, ir.Int(0), ir.Int(tc.trip), 1,
					ir.StoreF(a, []ir.IExpr{at}, ir.MulF(ir.LoadF(a, at), ir.Flt(1.5))),
					ir.SetF(s, ir.AddF(scalarRef(s), ir.LoadF(a, at)))))}
				return p
			}
			run := laneDiff(t, mk, lanePage, 64, nil)
			lanesEngaged(t, run, true)
			if sp := run.env.Span; sp.LaneChunks != sp.Chunks || sp.LaneChunks != tc.laneChunks || sp.LaneIters != tc.laneIts {
				t.Errorf("%+v: want %d lane-wise chunks over %d iterations", sp, tc.laneChunks, tc.laneIts)
			}
		})
	}
}

// FuzzSpanLanes: random affine loop bodies over one to three arrays —
// subscripts c·i + o with c in −2..2 (a positive c sometimes written as a
// shift), steps 1..3, an optional reduction, draw or carried scalar — on
// small pages and few frames, the bytecode (lane-wise chunks and all)
// against the oracle. The last two seeds store a[(i << 1) + 5]; the
// second also sums it.
func FuzzSpanLanes(f *testing.F) {
	for _, seed := range []string{"", "\x01\x02\x03\x04\x05\x06\x07\x08", "lanes", "\xff\x00\xff\x10\x20\x30\x40",
		"\x02\x01\x05\x09\x11\x03\x00\x07\x01\x08\x02", "\x00\x00\x03\x90\x04\x01\x02\x03\x04\x05\x06",
		"\x00\x00\x00\xc8\x04\x00\x00\x01\x05\x00\x00\x01\x05\x00",
		"\x00\x00\x00\xc8\x04\x00\x00\x01\x05\x00\x00\x01\x05\x01\x00\x00\x01\x05"} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		mk := func() *ir.Program { return laneProgram(data) }
		laneDiff(t, mk, 512, 8+int64(len(data)%8), nil)
	})
}

// laneProgram builds FuzzSpanLanes' program from data, read as a stream of
// choices (zeros once it runs out).
func laneProgram(data []byte) *ir.Program {
	pick := func(n int) int64 {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int64(int(b) % n)
	}
	const n = 700
	p := ir.NewProgram("fuzz")
	arrs := make([]*ir.Array, 1+pick(3))
	for k := range arrs {
		arrs[k] = p.NewArrayF(fmt.Sprintf("a%d", k), ir.Int(n))
	}
	s := p.NewScalarF("s")
	i := p.NewLoopVar("i")
	step, lo := 1+pick(3), pick(20)
	trip := 1 + pick(250)
	last := lo + (trip-1)*step
	// Each array has a stride most of its subscripts share: mixed deltas
	// on a stored array keep the body per-iteration.
	coef := make([]int64, len(arrs))
	for k := range coef {
		coef[k] = pick(5) - 2
	}
	sub := func(k int64) ir.IExpr {
		c := coef[k]
		form := pick(4)
		if form == 0 {
			c = pick(5) - 2
		}
		span := max(c*lo, c*last) - min(c*lo, c*last)
		if span >= n {
			c, span = 0, 0
		}
		o := pick(n-int(span)) - min(c*lo, c*last)
		if form == 1 && c > 0 {
			return ir.AddI(ir.ShlI(i, ir.Int(c-1)), ir.Int(o)) // c is 1 or 2
		}
		return ir.AddI(ir.MulI(i, ir.Int(c)), ir.Int(o))
	}
	ref := func() (*ir.Array, []ir.IExpr) {
		k := pick(len(arrs))
		return arrs[k], []ir.IExpr{sub(k)}
	}
	var expr func(depth int) ir.FExpr
	expr = func(depth int) ir.FExpr {
		switch k := pick(9); {
		case depth > 2 || k < 3:
			arr, idx := ref()
			return ir.LoadF(arr, idx...)
		case k == 3:
			return ir.FromInt{X: i}
		case k == 4:
			return ir.Flt(float64(pick(7)) - 3)
		default:
			op := []ir.FBinOp{ir.FAdd, ir.FSub, ir.FMul, ir.FMinOp, ir.FMaxOp}[pick(5)]
			return ir.FBin{Op: op, A: expr(depth + 1), B: expr(depth + 1)}
		}
	}
	var body []ir.Stmt
	for range 1 + pick(3) {
		arr, idx := ref()
		body = append(body, ir.StoreF(arr, idx, expr(0)))
	}
	switch pick(5) {
	case 1:
		body = append(body, ir.SetF(s, ir.AddF(scalarRef(s), expr(1))))
	case 2:
		body = append(body, ir.SetF(s, ir.AddF(scalarRef(s), ir.MulF(expr(2), expr(2)))))
	case 3:
		arr, idx := ref()
		body = append(body, ir.StoreF(arr, idx, ir.AddF(ir.Call(ir.Randlc), expr(1))))
	case 4:
		body = append(body, ir.SetF(s, ir.SubF(expr(1), scalarRef(s))))
	}
	p.Body = []ir.Stmt{ir.For(i, ir.Int(lo), ir.Int(last+1), step, body...)}
	return p
}

// TestLaneRunAllocs: lane-wise chunks allocate nothing — a run makes as
// many allocations at one page of chunks as at eight (the strip lives in
// Env; a local handed to the handlers would move to the heap per chunk).
func TestLaneRunAllocs(t *testing.T) {
	words := int64(lanePage / ir.ElemSize)
	allocs := func(n int64) float64 {
		p := ir.NewProgram("allocs")
		a := p.NewArrayF("a", ir.Int(n))
		i := p.NewLoopVar("i")
		p.Body = []ir.Stmt{ir.For(i, ir.Int(0), ir.Int(n), 1, ir.StoreF(a, []ir.IExpr{i}, ir.AddF(ir.LoadF(a, i), ir.Flt(1))))}
		_, _, _, m := buildWith(t, p, 64, Options{})
		m.Run() // faults every page in
		if env := m.Run(); env.Span.LaneChunks == 0 {
			t.Fatalf("no lane-wise chunk: %+v", env.Span)
		}
		return testing.AllocsPerRun(3, func() { m.Run() })
	}
	if one, eight := allocs(words), allocs(8*words); one != eight {
		t.Errorf("a run allocates %v at one page of chunks, %v at eight", one, eight)
	}
}
