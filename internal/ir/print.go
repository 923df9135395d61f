package ir

import (
	"fmt"
	"strings"
)

// Print renders a program as C-like source, in the style of the paper's
// Figure 2: loops, assignments, and the inserted prefetch/release calls.
func Print(p *Program) string {
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
			fmt.Fprintf(&b, "[%s]", d)
		}
		b.WriteString(";\n")
	}
	b.WriteString("\n")
	printStmts(&b, p.Body, 0)
	return b.String()
}

func printStmts(b *strings.Builder, stmts []Stmt, depth int) {
	ind := strings.Repeat("    ", depth)
	for _, s := range stmts {
		switch x := s.(type) {
		case *Loop:
			fmt.Fprintf(b, "%sfor (%s = %s; %s < %s; %s += %d) {\n",
				ind, x.Var, x.Lo, x.Var, x.Hi, x.Var, x.Step)
			printStmts(b, x.Body, depth+1)
			fmt.Fprintf(b, "%s}\n", ind)
		case AssignF:
			fmt.Fprintf(b, "%s%s = %s;\n", ind, refString(x.Arr, x.Idx), x.RHS)
		case AssignI:
			fmt.Fprintf(b, "%s%s = %s;\n", ind, refString(x.Arr, x.Idx), x.RHS)
		case SetScalarF:
			fmt.Fprintf(b, "%s%s = %s;\n", ind, x.Name, x.RHS)
		case SetScalarI:
			fmt.Fprintf(b, "%s%s = %s;\n", ind, x.Name, x.RHS)
		case If:
			fmt.Fprintf(b, "%sif %s {\n", ind, x.Cond)
			printStmts(b, x.Then, depth+1)
			if len(x.Else) > 0 {
				fmt.Fprintf(b, "%s} else {\n", ind)
				printStmts(b, x.Else, depth+1)
			}
			fmt.Fprintf(b, "%s}\n", ind)
		case Prefetch:
			fmt.Fprintf(b, "%sprefetch_block(&%s, %s);\n", ind, refString(x.Arr, x.Idx), x.Pages)
		case Release:
			fmt.Fprintf(b, "%srelease_block(&%s, %s);\n", ind, refString(x.Arr, x.Idx), x.Pages)
		case PrefetchRelease:
			fmt.Fprintf(b, "%sprefetch_release_block(&%s, &%s, %s, %s);\n",
				ind, refString(x.PfArr, x.PfIdx), refString(x.RelArr, x.RelIdx), x.PfPages, x.RelPages)
		default:
			fmt.Fprintf(b, "%s/* unknown stmt %T */\n", ind, s)
		}
	}
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
