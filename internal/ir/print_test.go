package ir

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// The fmt-based rendering Print and the String methods had before they
// became one append-style renderer, kept as the reference the renderer is
// compared against.

func refI(x IExpr) string {
	switch e := x.(type) {
	case IConst:
		return fmt.Sprintf("%d", e.Val)
	case ISlot:
		return e.Name
	case IBin:
		if e.Op == IMin || e.Op == IMax {
			return fmt.Sprintf("%s(%s, %s)", iopNames[e.Op], refI(e.A), refI(e.B))
		}
		return fmt.Sprintf("(%s %s %s)", refI(e.A), iopNames[e.Op], refI(e.B))
	case ILoad:
		return refRef(e.Arr, e.Idx)
	case IFromF:
		return fmt.Sprintf("(long)%s", refF(e.X))
	}
	return ""
}

func refF(x FExpr) string {
	switch e := x.(type) {
	case FConst:
		return fmt.Sprintf("%g", e.Val)
	case FScalar:
		return e.Name
	case FLoad:
		return refRef(e.Arr, e.Idx)
	case FBin:
		if e.Op == FMinOp || e.Op == FMaxOp {
			return fmt.Sprintf("%s(%s, %s)", fopNames[e.Op], refF(e.A), refF(e.B))
		}
		return fmt.Sprintf("(%s %s %s)", refF(e.A), fopNames[e.Op], refF(e.B))
	case FNeg:
		return fmt.Sprintf("(-%s)", refF(e.X))
	case FromInt:
		return fmt.Sprintf("(double)%s", refI(e.X))
	case FCall:
		s := e.Fn.Name() + "("
		for i, a := range e.Args {
			if i > 0 {
				s += ", "
			}
			s += refF(a)
		}
		return s + ")"
	}
	return ""
}

func refB(x BExpr) string {
	switch e := x.(type) {
	case CmpI:
		return fmt.Sprintf("(%s %s %s)", refI(e.A), cmpNames[e.Op], refI(e.B))
	case CmpF:
		return fmt.Sprintf("(%s %s %s)", refF(e.A), cmpNames[e.Op], refF(e.B))
	case And:
		return fmt.Sprintf("(%s && %s)", refB(e.A), refB(e.B))
	case Or:
		return fmt.Sprintf("(%s || %s)", refB(e.A), refB(e.B))
	case Not:
		return fmt.Sprintf("(!%s)", refB(e.X))
	}
	return ""
}

func refRef(a *Array, idx []IExpr) string {
	s := a.Name
	for _, ix := range idx {
		s += "[" + refI(ix) + "]"
	}
	return s
}

func refPrint(p *Program) string {
	var b strings.Builder
	fmt.Fprintf(&b, "/* program %s */\n", p.Name)
	for _, prm := range p.Params {
		known := ""
		if !prm.Known {
			known = " /* unknown at compile time */"
		}
		fmt.Fprintf(&b, "param %s = %d;%s\n", prm.Name, prm.Val, known)
	}
	for _, a := range p.Arrays {
		kind := "double"
		if a.Kind == I64 {
			kind = "long"
		}
		fmt.Fprintf(&b, "%s %s", kind, a.Name)
		for _, d := range a.DimExprs {
			fmt.Fprintf(&b, "[%s]", refI(d))
		}
		b.WriteString(";\n")
	}
	b.WriteString("\n")
	refStmts(&b, p.Body, 0)
	return b.String()
}

func refStmts(b *strings.Builder, stmts []Stmt, depth int) {
	ind := strings.Repeat("    ", depth)
	for _, s := range stmts {
		switch x := s.(type) {
		case *Loop:
			fmt.Fprintf(b, "%sfor (%s = %s; %s < %s; %s += %d) {\n",
				ind, x.Var, refI(x.Lo), x.Var, refI(x.Hi), x.Var, x.Step)
			refStmts(b, x.Body, depth+1)
			fmt.Fprintf(b, "%s}\n", ind)
		case AssignF:
			fmt.Fprintf(b, "%s%s = %s;\n", ind, refRef(x.Arr, x.Idx), refF(x.RHS))
		case AssignI:
			fmt.Fprintf(b, "%s%s = %s;\n", ind, refRef(x.Arr, x.Idx), refI(x.RHS))
		case SetScalarF:
			fmt.Fprintf(b, "%s%s = %s;\n", ind, x.Name, refF(x.RHS))
		case SetScalarI:
			fmt.Fprintf(b, "%s%s = %s;\n", ind, x.Name, refI(x.RHS))
		case If:
			fmt.Fprintf(b, "%sif %s {\n", ind, refB(x.Cond))
			refStmts(b, x.Then, depth+1)
			if len(x.Else) > 0 {
				fmt.Fprintf(b, "%s} else {\n", ind)
				refStmts(b, x.Else, depth+1)
			}
			fmt.Fprintf(b, "%s}\n", ind)
		case Prefetch:
			fmt.Fprintf(b, "%sprefetch_block(&%s, %s);\n", ind, refRef(x.Arr, x.Idx), refI(x.Pages))
		case Release:
			fmt.Fprintf(b, "%srelease_block(&%s, %s);\n", ind, refRef(x.Arr, x.Idx), refI(x.Pages))
		case PrefetchRelease:
			fmt.Fprintf(b, "%sprefetch_release_block(&%s, &%s, %s, %s);\n",
				ind, refRef(x.PfArr, x.PfIdx), refRef(x.RelArr, x.RelIdx), refI(x.PfPages), refI(x.RelPages))
		default:
			fmt.Fprintf(b, "%s/* unknown stmt %T */\n", ind, s)
		}
	}
}

// bogusStmt is a statement kind the printer does not know.
type bogusStmt struct{}

func (bogusStmt) isStmt() {}

// TestStringMatchesReference: every expression node kind, the call forms
// and the float literals fmt's %g treats specially render the same through
// String(), through Print (as the right-hand side or condition of a
// statement in every position a statement can take) and through the
// reference.
func TestStringMatchesReference(t *testing.T) {
	p := NewProgram("ref")
	n := p.NewParam("n", 64, true)
	m := p.NewParam("m", -3, false)
	a := p.NewArrayF("a", n, AddI(n, Int(1)))
	bI := p.NewArrayI("b", n)
	i, j := p.NewLoopVar("i"), p.NewLoopVar("j")
	k := p.NewScalarI("k")
	s := p.NewScalarF("s")

	iexprs := []IExpr{
		Int(0), Int(-7), Int(math.MaxInt64), Int(math.MinInt64), i,
		AddI(i, Int(1)), SubI(i, j), MulI(i, n), DivI(i, Int(2)), ModI(i, m),
		ShlI(Int(1), j), ShrI(n, Int(3)), MinI(AddI(i, Int(4)), SubI(n, Int(1))), MaxI(i, MinI(j, n)),
		LoadI(bI, i), LoadI(bI, LoadI(bI, AddI(i, j))),
		IFromF{X: MulF(s, Flt(0.5))},
	}
	fconsts := []float64{1, 0.1, 1e21, 1e-7, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		5e-324, 1e20, 123456789, 1e-5, 0.0001, -2.5, math.MaxFloat64}
	var fexprs []FExpr
	for _, v := range fconsts {
		fexprs = append(fexprs, Flt(v))
	}
	fexprs = append(fexprs,
		s, LoadF(a, i, j), LoadF(a, LoadI(bI, i), Int(0)),
		AddF(s, Flt(1)), SubF(s, s), MulF(LoadF(a, i, j), s), DivF(Flt(1), s),
		FBin{Op: FMinOp, A: s, B: Flt(2)}, FBin{Op: FMaxOp, A: AddF(s, s), B: FNeg{X: s}},
		FNeg{X: FNeg{X: s}}, FromInt{X: AddI(i, Int(1))},
		Call(Randlc), Call(Sqrt, s), Call(Abs, FNeg{X: s}), Call(Log, s), Call(Exp, s),
		Call(Sin, s), Call(Cos, s), Call(Pow, s, Flt(2)), Call(Pow, Call(Sqrt, s), FromInt{X: i}),
	)
	cmpI, cmpF := CmpI{Op: Lt, A: i, B: n}, CmpF{Op: Ge, A: s, B: Flt(0)}
	bexprs := []BExpr{cmpI, cmpF, And{A: cmpI, B: cmpF}, Or{A: cmpF, B: Not{X: cmpI}}, Not{X: And{A: cmpI, B: cmpI}}}
	for op := Lt; op <= Ne; op++ {
		bexprs = append(bexprs, CmpI{Op: op, A: i, B: j}, CmpF{Op: op, A: s, B: LoadF(a, i, j)})
	}

	// One statement of every kind per expression, nested so every
	// indentation depth and both If shapes occur.
	var body []Stmt
	for _, e := range iexprs {
		if e.String() != refI(e) {
			t.Errorf("IExpr String %q, reference %q", e.String(), refI(e))
		}
		body = append(body, SetI(k, e), StoreI(bI, []IExpr{e}, e),
			Prefetch{Arr: a, Idx: []IExpr{e, j}, Pages: e}, Release{Arr: bI, Idx: []IExpr{e}, Pages: e},
			PrefetchRelease{PfArr: a, PfIdx: []IExpr{e, e}, PfPages: e, RelArr: bI, RelIdx: []IExpr{e}, RelPages: Int(4)})
	}
	for _, e := range fexprs {
		if e.String() != refF(e) {
			t.Errorf("FExpr String %q, reference %q", e.String(), refF(e))
		}
		body = append(body, SetF(s, e), StoreF(a, []IExpr{i, j}, e))
	}
	for _, e := range bexprs {
		if e.String() != refB(e) {
			t.Errorf("BExpr String %q, reference %q", e.String(), refB(e))
		}
		body = append(body, If{Cond: e, Then: []Stmt{SetF(s, Flt(1))}},
			If{Cond: e, Then: []Stmt{SetI(k, i)}, Else: []Stmt{If{Cond: e, Else: []Stmt{SetI(k, j)}}}})
	}
	body = append(body, bogusStmt{})
	p.Body = []Stmt{For(i, Int(0), n, 1, For(j, AddI(i, Int(1)), MinI(n, m), 4, body...)), bogusStmt{}, For(j, m, n, 1)}
	if got, want := Print(p), refPrint(p); got != want {
		gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
		for l := 0; l < len(gl) && l < len(wl); l++ {
			if gl[l] != wl[l] {
				t.Fatalf("Print differs from the reference at line %d:\n got %q\nwant %q", l+1, gl[l], wl[l])
			}
		}
		t.Fatalf("Print is %d lines, the reference %d", len(gl), len(wl))
	}
}
