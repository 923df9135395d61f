package exec

import (
	"reflect"
	"testing"

	"repro/internal/hw"
	"repro/internal/ir"
)

// vnState is a copy of the live value-numbering facts, keyed like the
// maps snapshot used to return: the reference a restore is compared
// against.
type vnState struct {
	cse         map[uint64]cseFact
	bind, fbind map[int]int32
}

func cloneVN(m *kmaps) vnState {
	s := vnState{map[uint64]cseFact{}, map[int]int32{}, map[int]int32{}}
	for k, i := range m.cse {
		if f := m.vn[i]; f.e != nil {
			s.cse[k] = f
		}
	}
	for slot, r := range m.bind {
		if r >= 0 {
			s.bind[slot] = r
		}
	}
	for slot, r := range m.fbind {
		if r >= 0 {
			s.fbind[slot] = r
		}
	}
	return s
}

// TestValueNumberingTrail plays the enclosing scope of real lowerings: it
// marks the trail, copies the live facts, lowers statements whose own scopes
// mark and restore inside — a loop in an if in a loop, an if with an else
// (one mark restored twice), a page-run loop (its span-body mark inside its
// loop mark), a slot invalidated and re-bound — and after each restore the
// live facts must equal the copy taken at the mark.
func TestValueNumberingTrail(t *testing.T) {
	p := ir.NewProgram("trail")
	n := p.NewParam("n", 4096, true)
	a, b := p.NewArrayF("a", n), p.NewArrayF("b", n, ir.Int(8))
	i, j, k := p.NewLoopVar("i"), p.NewLoopVar("j"), p.NewScalarI("k")
	s := p.NewScalarF("s")
	ps := hw.Default().PageSize
	if err := p.Resolve(ps); err != nil {
		t.Fatal(err)
	}
	idx := func(x ir.IExpr) ir.IExpr { return ir.MinI(ir.AddI(x, ir.MulI(k, ir.Int(2))), ir.SubI(n, ir.Int(1))) }

	nest := ir.For(i, ir.Int(0), ir.DivI(n, ir.Int(8)), 1, // loop in if in loop
		ir.If{Cond: ir.CmpI{Op: ir.Lt, A: idx(i), B: n}, Then: []ir.Stmt{
			ir.For(j, ir.Int(0), ir.Int(8), 1,
				ir.StoreF(b, []ir.IExpr{idx(i), j}, ir.AddF(s, ir.LoadF(a, idx(i))))),
			ir.SetI(k, ir.AddI(k, ir.Int(1))),
		}},
		ir.SetF(s, ir.LoadF(a, idx(i))))
	branch := ir.If{Cond: ir.CmpF{Op: ir.Gt, A: s, B: ir.Flt(0)},
		Then: []ir.Stmt{ir.SetI(k, idx(k)), ir.SetF(s, ir.LoadF(a, idx(k)))},
		Else: []ir.Stmt{ir.SetF(s, ir.LoadF(a, idx(ir.Int(3)))), ir.SetI(k, ir.Int(0))}}
	pageRun := ir.For(i, ir.Int(0), n, 1,
		ir.StoreF(a, []ir.IExpr{i}, ir.MulF(ir.LoadF(a, i), ir.FromInt{X: ir.AddI(k, ir.Int(5))})))
	rebind := []ir.Stmt{ // k invalidated, re-bound, and its dependants with it, inside the scope
		ir.SetI(k, ir.AddI(k, ir.Int(1))), ir.SetF(s, ir.LoadF(a, idx(k))),
		ir.SetI(k, ir.AddI(k, ir.Int(1))), ir.SetF(s, ir.LoadF(a, idx(k))),
	}

	kc := newKcompiler(p, 12, nil)
	check := func(what string, mark int, want vnState) {
		t.Helper()
		kc.restore(mark)
		if kc.err != nil {
			t.Fatalf("%s: %v", what, kc.err)
		}
		if got := cloneVN(&kc.kmaps); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: after restore the maps are\n%+v\nat the mark they were\n%+v", what, got, want)
		}
		if len(kc.trail) != mark {
			t.Errorf("%s: trail holds %d entries after a restore to mark %d", what, len(kc.trail), mark)
		}
	}

	// Facts for the scopes to overwrite, delete and shadow: k and s bound,
	// and expressions over k numbered.
	facts := func() {
		t.Helper()
		kc.stmts([]ir.Stmt{ir.SetI(k, ir.Int(1)), ir.SetF(s, ir.LoadF(a, idx(k))), ir.SetF(s, ir.LoadF(a, idx(ir.Int(3))))})
		if st := cloneVN(&kc.kmaps); kc.bind[k.Slot] < 0 || len(st.cse) == 0 || len(st.fbind) == 0 {
			t.Fatalf("no facts to restore: k bound %v, cse %d, fbind %d", kc.bind[k.Slot] >= 0, len(st.cse), len(st.fbind))
		}
	}
	facts()
	outer, atOuter := kc.snapshot(), cloneVN(&kc.kmaps)

	kc.stmt(nest)
	facts()
	inner, atInner := kc.snapshot(), cloneVN(&kc.kmaps) // a mark above entries the outer one will unwind
	kc.stmts(rebind)
	check("rebind", inner, atInner)
	kc.stmt(branch)
	check("if/else", inner, atInner)
	kc.stmts(branch.Then) // the two branches of an if, as ifStmt lowers them: one mark, restored twice
	check("then", inner, atInner)
	kc.stmts(branch.Else)
	check("else", inner, atInner)
	kc.stmt(pageRun)
	if r := kc.reports[len(kc.reports)-1]; r.Driver != "page-run" {
		t.Fatalf("the page-run case lowered as %q (%s)", r.Driver, r.Reason)
	}
	check("page-run loop", inner, atInner)
	kc.stmt(nest)
	kc.stmts(rebind)
	check("nest, rebind", outer, atOuter)
}
