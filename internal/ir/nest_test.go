package ir

import "testing"

func nestProgram() (*Program, ISlot, ISlot, ISlot, *Array, *Array) {
	p := NewProgram("nest")
	i := p.NewLoopVar("i")
	j := p.NewLoopVar("j")
	s := p.NewScalarI("s")
	a := p.NewArrayF("a", Int(64))
	col := p.NewArrayI("col", Int(64))
	return p, i, j, s, a, col
}

func TestPureAndTrap(t *testing.T) {
	_, i, _, _, _, col := nestProgram()
	pure := AddI(MulI(i, Int(3)), Int(7))
	if !PureIExpr(pure) {
		t.Fatalf("arith over slots/consts must be pure: %s", pure)
	}
	if PureIExpr(LoadI(col, i)) {
		t.Fatal("ILoad touches simulated memory; not pure")
	}
	if MayTrapIExpr(pure) {
		t.Fatalf("no division: must not trap: %s", pure)
	}
	if !MayTrapIExpr(AddI(Int(1), DivI(i, Int(0)))) {
		t.Fatal("division may trap")
	}
	if !MayTrapIExpr(ModI(i, i)) {
		t.Fatal("modulus may trap")
	}
}

func TestIExprSlots(t *testing.T) {
	_, i, j, _, a, col := nestProgram()
	var got []int
	IExprSlots(AddI(LoadI(col, MulI(i, Int(2))), IFromF{X: LoadF(a, j)}), func(s int) {
		got = append(got, s)
	})
	want := map[int]bool{i.Slot: true, j.Slot: true}
	if len(got) != 2 {
		t.Fatalf("want 2 slot reads, got %v", got)
	}
	for _, s := range got {
		if !want[s] {
			t.Fatalf("unexpected slot %d in %v", s, got)
		}
	}
}

func TestConstFold(t *testing.T) {
	_, i, _, _, _, _ := nestProgram()
	if v, ok := ConstFold(MulI(AddI(Int(2), Int(3)), SubI(Int(10), Int(4)))); !ok || v != 30 {
		t.Fatalf("got %d,%v want 30,true", v, ok)
	}
	if _, ok := ConstFold(AddI(i, Int(1))); ok {
		t.Fatal("slot read is not a constant")
	}
	if _, ok := ConstFold(DivI(Int(6), Int(2))); ok {
		t.Fatal("division is never folded (trap semantics)")
	}
}

// TestWalkRefsOrder pins the canonical reference order the locality
// analysis and the profile's site enumeration share: the written element,
// then the right-hand side, then the store's own subscripts; a load
// before the loads inside its subscripts; a condition before its
// branches; one retained-safe path per loop body.
func TestWalkRefsOrder(t *testing.T) {
	_, i, j, s, a, col := nestProgram()
	inner := For(j, Int(0), Int(4), 1,
		StoreF(a, []IExpr{LoadI(col, j)}, LoadF(a, LoadI(col, i))),
	)
	outer := For(i, Int(0), Int(4), 1,
		inner,
		If{
			Cond: CmpI{Op: Lt, A: LoadI(col, i), B: Int(2)},
			Then: []Stmt{SetI(s, LoadI(col, Int(1)))},
			Else: []Stmt{Prefetch{Arr: a}},
		},
	)
	type ref struct {
		arr   *Array
		write bool
		depth int
	}
	var got []ref
	var paths [][]*Loop
	WalkRefs([]Stmt{outer}, func(arr *Array, idx []IExpr, isWrite bool, path []*Loop) {
		got = append(got, ref{arr, isWrite, len(path)})
		paths = append(paths, path)
	})
	want := []ref{
		{a, true, 2}, {a, false, 2}, {col, false, 2}, {col, false, 2}, // store, RHS load, its subscript, store's subscript
		{col, false, 1}, {col, false, 1}, // condition, then-branch; the hint is not a reference
	}
	if len(got) != len(want) {
		t.Fatalf("walked %d references, want %d: %+v", len(got), len(want), got)
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("reference %d = %+v, want %+v", k, got[k], want[k])
		}
	}
	if paths[0][0] != outer || paths[0][1] != inner || paths[4][0] != outer {
		t.Fatalf("paths not outermost-first: %v", paths)
	}
}

func TestStaticTrip(t *testing.T) {
	p, i, _, s, _, _ := nestProgram()
	bm := p.NewParam("bm", 5, false)
	env := map[int]int64{bm.Slot: 5}
	cases := []struct {
		name     string
		lo, hi   IExpr
		step     int64
		wantLo   int64
		wantTrip int64
		ok       bool
	}{
		{"literals", Int(0), Int(5), 1, 0, 5, true},
		{"param bound", Int(1), AddI(bm, Int(2)), 2, 1, 3, true},
		{"empty", Int(3), Int(3), 1, 3, 0, true},
		{"inverted", Int(9), Int(3), 1, 9, 0, true},
		{"unbound slot", Int(0), s, 1, 0, 0, false},
		{"zero divisor", Int(0), DivI(Int(8), Int(0)), 1, 0, 0, false},
		{"nonzero divisor folds", Int(0), DivI(AddI(bm, Int(3)), Int(2)), 1, 0, 4, true},
		{"non-positive step", Int(0), Int(5), -1, 0, 0, false},
	}
	for _, c := range cases {
		l := &Loop{Var: i.Name, Slot: i.Slot, Lo: c.lo, Hi: c.hi, Step: c.step}
		lo, trip, ok := StaticTrip(l, env)
		if ok != c.ok || ok && (lo != c.wantLo || trip != c.wantTrip) {
			t.Errorf("%s: StaticTrip = %d,%d,%v want %d,%d,%v", c.name, lo, trip, ok, c.wantLo, c.wantTrip, c.ok)
		}
	}
}
