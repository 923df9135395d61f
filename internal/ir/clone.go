package ir

// Clone returns a deep copy of the program: fresh Param and Array
// structs, and a body rebuilt so every array reference points at the
// copies (expression subtrees that name no array are immutable values and
// are shared). A clone is what a compile cache must own — the caller's
// program instance can be re-parameterized and re-resolved at will
// (SetParam, Resolve with another page size) without mutating the array
// geometry a cached compilation baked into its closures.
//
// Resolution state is carried over: if the receiver is resolved, the
// clone is too, with the same Dims/Strides/Base.
func (p *Program) Clone() *Program {
	q := &Program{
		Name:     p.Name,
		NInt:     p.NInt,
		NFloat:   p.NFloat,
		ScalarsI: make(map[string]int, len(p.ScalarsI)),
		ScalarsF: make(map[string]int, len(p.ScalarsF)),
		Seed:     p.Seed,
		resolved: p.resolved,
	}
	for k, v := range p.ScalarsI {
		q.ScalarsI[k] = v
	}
	for k, v := range p.ScalarsF {
		q.ScalarsF[k] = v
	}
	q.Params = make([]*Param, len(p.Params))
	for i, prm := range p.Params {
		cp := *prm
		q.Params[i] = &cp
	}
	amap := make(map[*Array]*Array, len(p.Arrays))
	q.Arrays = make([]*Array, len(p.Arrays))
	for i, a := range p.Arrays {
		ca := &Array{
			Name:  a.Name,
			Kind:  a.Kind,
			Base:  a.Base,
			Elems: a.Elems,
		}
		ca.DimExprs = append([]IExpr(nil), a.DimExprs...)
		ca.Dims = append([]int64(nil), a.Dims...)
		ca.Strides = append([]int64(nil), a.Strides...)
		q.Arrays[i] = ca
		amap[a] = ca
	}
	q.Body = cloneStmts(p.Body, amap)
	return q
}

func cloneStmts(body []Stmt, am map[*Array]*Array) []Stmt {
	if body == nil {
		return nil
	}
	out := make([]Stmt, len(body))
	for i, s := range body {
		out[i] = cloneStmt(s, am)
	}
	return out
}

func cloneStmt(s Stmt, am map[*Array]*Array) Stmt {
	switch x := s.(type) {
	case *Loop:
		cl := *x
		cl.Lo, _ = cloneIExpr(x.Lo, am)
		cl.Hi, _ = cloneIExpr(x.Hi, am)
		cl.Body = cloneStmts(x.Body, am)
		return &cl
	case AssignF:
		x.Arr, x.Idx = am[x.Arr], cloneIdx(x.Idx, am)
		x.RHS, _ = cloneFExpr(x.RHS, am)
		return x
	case AssignI:
		x.Arr, x.Idx = am[x.Arr], cloneIdx(x.Idx, am)
		x.RHS, _ = cloneIExpr(x.RHS, am)
		return x
	case SetScalarF:
		rhs, changed := cloneFExpr(x.RHS, am)
		if !changed {
			return s
		}
		x.RHS = rhs
		return x
	case SetScalarI:
		rhs, changed := cloneIExpr(x.RHS, am)
		if !changed {
			return s
		}
		x.RHS = rhs
		return x
	case If:
		x.Cond, _ = cloneBExpr(x.Cond, am)
		x.Then, x.Else = cloneStmts(x.Then, am), cloneStmts(x.Else, am)
		return x
	case Prefetch:
		x.Arr, x.Idx = am[x.Arr], cloneIdx(x.Idx, am)
		x.Pages, _ = cloneIExpr(x.Pages, am)
		return x
	case Release:
		x.Arr, x.Idx = am[x.Arr], cloneIdx(x.Idx, am)
		x.Pages, _ = cloneIExpr(x.Pages, am)
		return x
	case PrefetchRelease:
		x.PfArr, x.PfIdx = am[x.PfArr], cloneIdx(x.PfIdx, am)
		x.RelArr, x.RelIdx = am[x.RelArr], cloneIdx(x.RelIdx, am)
		x.PfPages, _ = cloneIExpr(x.PfPages, am)
		x.RelPages, _ = cloneIExpr(x.RelPages, am)
		return x
	default:
		// Unknown statement kinds pass through by reference; the compiler
		// will reject them with its own diagnostic.
		return s
	}
}

func cloneIdx(idx []IExpr, am map[*Array]*Array) []IExpr {
	if idx == nil {
		return nil
	}
	out := make([]IExpr, len(idx))
	for i, e := range idx {
		out[i], _ = cloneIExpr(e, am)
	}
	return out
}

// The expression cloners report whether the copy differs from e.
// Expression nodes are immutable values and only a load names an array,
// so a subtree without a load is shared with the original, and a subtree
// with one is rebuilt along the path from the load to its root.

func cloneIExpr(e IExpr, am map[*Array]*Array) (IExpr, bool) {
	switch x := e.(type) {
	case IBin:
		a, ca := cloneIExpr(x.A, am)
		b, cb := cloneIExpr(x.B, am)
		if ca || cb {
			return IBin{Op: x.Op, A: a, B: b}, true
		}
	case ILoad:
		return ILoad{Arr: am[x.Arr], Idx: cloneIdx(x.Idx, am)}, true
	case IFromF:
		if f, changed := cloneFExpr(x.X, am); changed {
			return IFromF{X: f}, true
		}
	}
	return e, false
}

func cloneFExpr(e FExpr, am map[*Array]*Array) (FExpr, bool) {
	switch x := e.(type) {
	case FLoad:
		return FLoad{Arr: am[x.Arr], Idx: cloneIdx(x.Idx, am)}, true
	case FBin:
		a, ca := cloneFExpr(x.A, am)
		b, cb := cloneFExpr(x.B, am)
		if ca || cb {
			return FBin{Op: x.Op, A: a, B: b}, true
		}
	case FNeg:
		if f, changed := cloneFExpr(x.X, am); changed {
			return FNeg{X: f}, true
		}
	case FromInt:
		if i, changed := cloneIExpr(x.X, am); changed {
			return FromInt{X: i}, true
		}
	case FCall:
		var args []FExpr
		for i, a := range x.Args {
			if c, changed := cloneFExpr(a, am); changed {
				if args == nil {
					args = append([]FExpr(nil), x.Args...)
				}
				args[i] = c
			}
		}
		if args != nil {
			return FCall{Fn: x.Fn, Args: args}, true
		}
	}
	return e, false
}

func cloneBExpr(e BExpr, am map[*Array]*Array) (BExpr, bool) {
	switch x := e.(type) {
	case CmpI:
		a, ca := cloneIExpr(x.A, am)
		b, cb := cloneIExpr(x.B, am)
		if ca || cb {
			return CmpI{Op: x.Op, A: a, B: b}, true
		}
	case CmpF:
		a, ca := cloneFExpr(x.A, am)
		b, cb := cloneFExpr(x.B, am)
		if ca || cb {
			return CmpF{Op: x.Op, A: a, B: b}, true
		}
	case And:
		a, ca := cloneBExpr(x.A, am)
		b, cb := cloneBExpr(x.B, am)
		if ca || cb {
			return And{A: a, B: b}, true
		}
	case Or:
		a, ca := cloneBExpr(x.A, am)
		b, cb := cloneBExpr(x.B, am)
		if ca || cb {
			return Or{A: a, B: b}, true
		}
	case Not:
		if b, changed := cloneBExpr(x.X, am); changed {
			return Not{X: b}, true
		}
	}
	return e, false
}
