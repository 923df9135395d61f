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

func TestWrittenSlots(t *testing.T) {
	_, i, j, s, a, _ := nestProgram()
	body := []Stmt{
		For(j, Int(0), Int(4), 1,
			StoreF(a, []IExpr{j}, Flt(0)),
		),
		If{
			Cond: CmpI{Op: Lt, A: i, B: Int(2)},
			Then: []Stmt{SetI(s, Int(1))},
		},
	}
	w := WrittenSlots(body, nil)
	if !w[j.Slot] || !w[s.Slot] {
		t.Fatalf("expected slots %d and %d written, got %v", j.Slot, s.Slot, w)
	}
	if w[i.Slot] {
		t.Fatalf("slot %d (i) is only read, got %v", i.Slot, w)
	}
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

func TestAffineCoeff(t *testing.T) {
	_, i, j, _, _, col := nestProgram()
	inv := func(s int) bool { return s != j.Slot } // j varies, everything else fixed

	cases := []struct {
		name  string
		x     IExpr
		coeff int64
		ok    bool
	}{
		{"i itself", i, 1, true},
		{"i*32+k-form", AddI(MulI(i, Int(32)), Int(5)), 32, true},
		{"const*i", MulI(Int(-4), i), -4, true},
		{"i-i cancels", SubI(i, i), 0, true},
		{"invariant j-free", AddI(Int(3), Int(9)), 0, true},
		{"varying other slot", AddI(i, j), 0, false},
		{"i*i nonlinear", MulI(i, i), 0, false},
		{"indirect", LoadI(col, i), 0, false},
		{"min of varying", MinI(AddI(i, Int(2)), Int(31)), 0, false},
		{"min of invariants", MinI(Int(7), Int(31)), 0, true},
		{"div of invariants", DivI(Int(8), Int(2)), 0, true},
		{"div by i", DivI(Int(8), i), 0, false},
	}
	for _, c := range cases {
		coeff, ok := AffineCoeff(c.x, i.Slot, inv)
		if ok != c.ok || (ok && coeff != c.coeff) {
			t.Errorf("%s: AffineCoeff(%s) = %d,%v want %d,%v", c.name, c.x, coeff, ok, c.coeff, c.ok)
		}
	}
}

func TestSummarize(t *testing.T) {
	_, i, j, s, a, _ := nestProgram()

	flat := For(i, Int(0), Int(8), 1, StoreF(a, []IExpr{i}, Flt(1)))
	sum := Summarize(flat)
	if sum.HasIf || sum.HasHint || sum.WritesInductionVar {
		t.Fatalf("flat loop summary wrong: %+v", sum)
	}

	nested := For(i, Int(0), Int(8), 1,
		For(j, Int(0), Int(4), 1,
			Prefetch{Arr: a, Idx: []IExpr{j}, Pages: Int(1)},
			StoreF(a, []IExpr{j}, Flt(1)),
		),
		If{Cond: CmpI{Op: Lt, A: i, B: Int(2)}, Then: []Stmt{SetI(s, i)}},
	)
	sum = Summarize(nested)
	if !sum.HasIf || !sum.HasHint {
		t.Fatalf("nested loop summary wrong: %+v", sum)
	}
	if !sum.Written[j.Slot] || !sum.Written[s.Slot] {
		t.Fatalf("written set wrong: %+v", sum.Written)
	}
	if sum.WritesInductionVar {
		t.Fatal("i is not written by the nested body")
	}

	selfMod := For(i, Int(0), Int(8), 1, SetI(i, Int(0)))
	if !Summarize(selfMod).WritesInductionVar {
		t.Fatal("direct induction-variable store missed")
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
		{"may trap", Int(0), DivI(Int(8), Int(0)), 1, 0, 0, false},
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
