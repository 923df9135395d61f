package ir

import (
	"fmt"
	"strconv"

	"repro/internal/stash"
)

// One renderer serves Print and every String method: it appends to a
// []byte with strconv, so printing a program is one buffer however deep
// its expressions nest, and the two can never disagree (profile site keys,
// plan strings and error texts are cut from the same bytes Print emits).

// appendBin renders a binary node: "(x op y)", or "op(x, y)" for the
// operators written as calls.
func appendBin[T any](b []byte, op string, call bool, x, y T, f func([]byte, T) []byte) []byte {
	if call {
		b = f(append(append(b, op...), '('), x)
		return append(f(append(b, ", "...), y), ')')
	}
	b = append(f(append(b, '('), x), ' ')
	return append(f(append(append(b, op...), ' '), y), ')')
}

func appendI(b []byte, x IExpr) []byte {
	switch e := x.(type) {
	case IConst:
		return strconv.AppendInt(b, e.Val, 10)
	case ISlot:
		return append(b, e.Name...)
	case IBin:
		return appendBin(b, iopNames[e.Op], e.Op == IMin || e.Op == IMax, e.A, e.B, appendI)
	case ILoad:
		return appendRef(b, e.Arr, e.Idx)
	case IFromF:
		return appendF(append(b, "(long)"...), e.X)
	}
	return b
}

func appendF(b []byte, x FExpr) []byte {
	switch e := x.(type) {
	case FConst:
		return strconv.AppendFloat(b, e.Val, 'g', -1, 64) // fmt's %g
	case FScalar:
		return append(b, e.Name...)
	case FLoad:
		return appendRef(b, e.Arr, e.Idx)
	case FBin:
		return appendBin(b, fopNames[e.Op], e.Op == FMinOp || e.Op == FMaxOp, e.A, e.B, appendF)
	case FNeg:
		return append(appendF(append(b, "(-"...), e.X), ')')
	case FromInt:
		return appendI(append(b, "(double)"...), e.X)
	case FCall:
		b = append(append(b, e.Fn.Name()...), '(')
		for i, a := range e.Args {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = appendF(b, a)
		}
		return append(b, ')')
	}
	return b
}

func appendB(b []byte, x BExpr) []byte {
	switch e := x.(type) {
	case CmpI:
		return appendBin(b, cmpNames[e.Op], false, e.A, e.B, appendI)
	case CmpF:
		return appendBin(b, cmpNames[e.Op], false, e.A, e.B, appendF)
	case And:
		return appendBin(b, "&&", false, e.A, e.B, appendB)
	case Or:
		return appendBin(b, "||", false, e.A, e.B, appendB)
	case Not:
		return append(appendB(append(b, "(!"...), e.X), ')')
	}
	return b
}

func appendRef(b []byte, a *Array, idx []IExpr) []byte {
	return AppendIndex(append(b, a.Name...), idx)
}

// AppendIndex appends a subscript list the way Print renders one after
// its array's name: "[i][(j + 1)]".
func AppendIndex(b []byte, idx []IExpr) []byte {
	for _, ix := range idx {
		b = append(appendI(append(b, '['), ix), ']')
	}
	return b
}

// printBuf keeps Print's buffer between calls: the largest one grown.
var printBuf = stash.New(func(b *[]byte) int { return cap(*b) })

// Print renders a program as C-like source, in the style of the paper's
// Figure 2: loops, assignments, and the inserted prefetch/release calls.
// It renders into the stashed buffer and allocates only the string.
func Print(p *Program) string {
	buf := printBuf.Take()
	defer printBuf.Put(buf)
	b := append(append(append((*buf)[:0], "/* program "...), p.Name...), " */\n"...)
	for _, prm := range p.Params {
		b = append(append(append(b, "param "...), prm.Name...), " = "...)
		b = append(strconv.AppendInt(b, prm.Val, 10), ';')
		if !prm.Known {
			b = append(b, " /* unknown at compile time */"...)
		}
		b = append(b, '\n')
	}
	for _, a := range p.Arrays {
		kind := "double "
		if a.Kind == I64 {
			kind = "long "
		}
		b = append(appendRef(append(b, kind...), a, a.DimExprs), ";\n"...)
	}
	*buf = appendStmts(append(b, '\n'), p.Body, 0)
	return string(*buf)
}

func appendIndent(b []byte, depth int) []byte {
	for ; depth > 0; depth-- {
		b = append(b, "    "...)
	}
	return b
}

// appendHint renders one side of a hint call's address: "&arr[idx...]".
func appendHint(b []byte, call string, a *Array, idx []IExpr) []byte {
	return appendRef(append(append(b, call...), '&'), a, idx)
}

func appendStmts(b []byte, stmts []Stmt, depth int) []byte {
	for _, s := range stmts {
		b = appendIndent(b, depth)
		switch x := s.(type) {
		case *Loop:
			b = appendI(append(append(append(b, "for ("...), x.Var...), " = "...), x.Lo)
			b = appendI(append(append(append(b, "; "...), x.Var...), " < "...), x.Hi)
			b = strconv.AppendInt(append(append(append(b, "; "...), x.Var...), " += "...), x.Step, 10)
			b = appendStmts(append(b, ") {\n"...), x.Body, depth+1)
			b = append(appendIndent(b, depth), "}\n"...)
		case AssignF:
			b = appendF(append(appendRef(b, x.Arr, x.Idx), " = "...), x.RHS)
			b = append(b, ";\n"...)
		case AssignI:
			b = appendI(append(appendRef(b, x.Arr, x.Idx), " = "...), x.RHS)
			b = append(b, ";\n"...)
		case SetScalarF:
			b = appendF(append(append(b, x.Name...), " = "...), x.RHS)
			b = append(b, ";\n"...)
		case SetScalarI:
			b = appendI(append(append(b, x.Name...), " = "...), x.RHS)
			b = append(b, ";\n"...)
		case If:
			b = append(appendB(append(b, "if "...), x.Cond), " {\n"...)
			b = appendStmts(b, x.Then, depth+1)
			if len(x.Else) > 0 {
				b = append(appendIndent(b, depth), "} else {\n"...)
				b = appendStmts(b, x.Else, depth+1)
			}
			b = append(appendIndent(b, depth), "}\n"...)
		case Prefetch:
			b = appendI(append(appendHint(b, "prefetch_block(", x.Arr, x.Idx), ", "...), x.Pages)
			b = append(b, ");\n"...)
		case Release:
			b = appendI(append(appendHint(b, "release_block(", x.Arr, x.Idx), ", "...), x.Pages)
			b = append(b, ");\n"...)
		case PrefetchRelease:
			b = appendHint(appendHint(b, "prefetch_release_block(", x.PfArr, x.PfIdx), ", ", x.RelArr, x.RelIdx)
			b = appendI(append(appendI(append(b, ", "...), x.PfPages), ", "...), x.RelPages)
			b = append(b, ");\n"...)
		default:
			b = append(b, fmt.Sprintf("/* unknown stmt %T */\n", s)...)
		}
	}
	return b
}

// CountStmts returns the number of statements in a tree (tests use it to
// check transformation growth).
func CountStmts(stmts []Stmt) int {
	n := 0
	for _, s := range stmts {
		n++
		switch x := s.(type) {
		case *Loop:
			n += CountStmts(x.Body)
		case If:
			n += CountStmts(x.Then) + CountStmts(x.Else)
		}
	}
	return n
}

// WalkStmts calls fn for every statement in the tree, parents before
// children.
func WalkStmts(stmts []Stmt, fn func(Stmt)) {
	for _, s := range stmts {
		fn(s)
		switch x := s.(type) {
		case *Loop:
			WalkStmts(x.Body, fn)
		case If:
			WalkStmts(x.Then, fn)
			WalkStmts(x.Else, fn)
		}
	}
}
