package ir

import (
	"strings"
	"testing"
	"testing/quick"
)

// bind is the lookup of the slot bindings env holds.
func bind(env map[int]int64) func(slot int) (int64, bool) {
	return func(slot int) (int64, bool) {
		v, ok := env[slot]
		return v, ok
	}
}

func TestConstEval(t *testing.T) {
	env := bind(map[int]int64{0: 10, 1: 3})
	s0 := ISlot{Slot: 0, Name: "n"}
	s1 := ISlot{Slot: 1, Name: "m"}
	cases := []struct {
		e    IExpr
		want int64
	}{
		{Int(7), 7},
		{s0, 10},
		{AddI(s0, s1), 13},
		{SubI(s0, s1), 7},
		{MulI(s0, s1), 30},
		{DivI(s0, s1), 3},
		{ModI(s0, s1), 1},
		{ShlI(Int(1), s1), 8},
		{ShrI(s0, Int(1)), 5},
		{MinI(s0, s1), 3},
		{MaxI(s0, s1), 10},
	}
	for _, c := range cases {
		got, ok := ConstEval(c.e, env)
		if !ok || got != c.want {
			t.Errorf("ConstEval(%s) = %d,%v, want %d", c.e, got, ok, c.want)
		}
	}
	if _, ok := ConstEval(ISlot{Slot: 9}, env); ok {
		t.Error("ConstEval succeeded on unbound slot")
	}
	if _, ok := ConstEval(LoadI(&Array{Name: "b"}, Int(0)), env); ok {
		t.Error("ConstEval succeeded on array load")
	}
}

func TestResolveLayout(t *testing.T) {
	p := NewProgram("layout")
	n := p.NewParam("n", 100, true)
	a := p.NewArrayF("a", n)          // 800 B → 1 page
	b := p.NewArrayF("b", n, Int(10)) // 8000 B → 2 pages
	c := p.NewArrayI("c", Int(512))   // 4096 B → 1 page
	if err := p.Resolve(4096); err != nil {
		t.Fatal(err)
	}
	if a.Base != 0 || a.Elems != 100 {
		t.Fatalf("a: base %d elems %d", a.Base, a.Elems)
	}
	if b.Base != 4096 || b.Elems != 1000 {
		t.Fatalf("b: base %d elems %d, want page-aligned after a", b.Base, b.Elems)
	}
	if b.Strides[0] != 10 || b.Strides[1] != 1 {
		t.Fatalf("b strides %v, want [10 1] (row-major)", b.Strides)
	}
	if c.Base != 4096+2*4096 {
		t.Fatalf("c base %d", c.Base)
	}
	if got := p.TotalBytes(4096); got != 4*4096 {
		t.Fatalf("TotalBytes = %d, want %d", got, 4*4096)
	}
}

func TestResolveRejectsBadExtent(t *testing.T) {
	p := NewProgram("bad")
	n := p.NewParam("n", -5, true)
	p.NewArrayF("a", n)
	if err := p.Resolve(4096); err == nil {
		t.Fatal("Resolve accepted negative extent")
	}
	p2 := NewProgram("bad2")
	i := p2.NewLoopVar("i")
	p2.NewArrayF("a", i) // loop var in extent: not evaluable
	if err := p2.Resolve(4096); err == nil {
		t.Fatal("Resolve accepted loop-var extent")
	}
}

func TestSetParamInvalidatesResolution(t *testing.T) {
	p := NewProgram("re")
	n := p.NewParam("n", 100, true)
	a := p.NewArrayF("a", n)
	if err := p.Resolve(4096); err != nil {
		t.Fatal(err)
	}
	if err := p.SetParam("n", 1000); err != nil {
		t.Fatal(err)
	}
	if p.Resolved() {
		t.Fatal("program still resolved after SetParam")
	}
	if err := p.Resolve(4096); err != nil {
		t.Fatal(err)
	}
	if a.Elems != 1000 {
		t.Fatalf("a.Elems = %d after rebind, want 1000", a.Elems)
	}
	if err := p.SetParam("zzz", 1); err == nil {
		t.Fatal("SetParam accepted unknown name")
	}
}

func TestPrintFigureTwoShape(t *testing.T) {
	// A nest like Figure 2(a) should print recognizably, and inserted
	// hints should print as prefetch/release calls.
	p := NewProgram("fig2")
	n := p.NewParam("N", 64, true)
	a := p.NewArrayF("a", Int(100000))
	b := p.NewArrayI("b", Int(100000))
	cc := p.NewArrayF("c", Int(1000), n)
	i := p.NewLoopVar("i")
	j := p.NewLoopVar("j")
	s := p.NewScalarF("t")
	p.Body = []Stmt{
		Prefetch{Arr: b, Idx: []IExpr{Int(0)}, Pages: Int(4)},
		For(i, Int(0), Int(1000), 1,
			For(j, Int(0), n, 1,
				SetF(s, AddF(FScalar{Slot: s.Slot, Name: "t"}, LoadF(cc, i, j))),
			),
			StoreF(a, []IExpr{LoadI(b, i)}, AddF(LoadF(a, LoadI(b, i)), Flt(1))),
			PrefetchRelease{
				PfArr: b, PfIdx: []IExpr{AddI(i, Int(512))}, PfPages: Int(4),
				RelArr: b, RelIdx: []IExpr{SubI(i, Int(512))}, RelPages: Int(4),
			},
		),
	}
	out := Print(p)
	for _, want := range []string{
		"for (i = 0; i < 1000; i += 1)",
		"for (j = 0; j < N; j += 1)",
		"a[b[i]]",
		"c[i][j]",
		"prefetch_block(&b[0], 4);",
		"prefetch_release_block(&b[(i + 512)], &b[(i - 512)], 4, 4);",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Print output missing %q:\n%s", want, out)
		}
	}
}

func TestCountAndWalk(t *testing.T) {
	p := NewProgram("w")
	n := p.NewParam("n", 10, true)
	a := p.NewArrayF("a", n)
	i := p.NewLoopVar("i")
	p.Body = []Stmt{
		For(i, Int(0), n, 1,
			StoreF(a, []IExpr{i}, Flt(1)),
			If{Cond: CmpI{Op: Lt, A: i, B: Int(5)},
				Then: []Stmt{StoreF(a, []IExpr{i}, Flt(2))}},
		),
	}
	if got := CountStmts(p.Body); got != 4 {
		t.Fatalf("CountStmts = %d, want 4", got)
	}
	var loops, assigns int
	WalkStmts(p.Body, func(s Stmt) {
		switch s.(type) {
		case *Loop:
			loops++
		case AssignF:
			assigns++
		}
	})
	if loops != 1 || assigns != 2 {
		t.Fatalf("walk saw %d loops, %d assigns", loops, assigns)
	}
}

func TestForRejectsBadStep(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("For with zero step did not panic")
		}
	}()
	For(ISlot{}, Int(0), Int(1), 0)
}

// Property: ConstEval is consistent with itself under add/mul composition.
func TestConstEvalAlgebraProperty(t *testing.T) {
	f := func(a, b, c int16) bool {
		ea := Int(int64(a))
		eb := Int(int64(b))
		ec := Int(int64(c))
		// (a+b)*c == a*c + b*c
		l, _ := ConstEval(MulI(AddI(ea, eb), ec), nil)
		r, _ := ConstEval(AddI(MulI(ea, ec), MulI(eb, ec)), nil)
		return l == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
