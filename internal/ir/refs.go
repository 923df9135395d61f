package ir

// WalkRefs calls visit once for every array reference in stmts, in the
// canonical reference order the locality analysis and the profile's
// site enumeration share: statements in program order; an assignment's
// written element first, then the references of its right-hand side,
// then those inside its own subscripts; a load before the references
// inside its subscripts; an If's condition before its branches.
// Prefetch and Release statements are compiler output, never input
// references, and are skipped. So are the walk's long-standing blind
// spots — loop bounds and the operand of a float-to-int conversion —
// which both consumers must agree on, whatever they are.
//
// path is the enclosing loops within stmts, outermost first. Each loop
// body gets its own slice, cut from one arena with its capacity capped and
// never modified afterwards, so visit may retain it.
func WalkRefs(stmts []Stmt, visit func(arr *Array, idx []IExpr, isWrite bool, path []*Loop)) {
	w := refWalk{visit: visit}
	w.stmts(stmts, nil)
}

type refWalk struct {
	visit func(arr *Array, idx []IExpr, isWrite bool, path []*Loop)
	paths []*Loop // the arena the paths are cut from
}

func (w *refWalk) stmts(stmts []Stmt, path []*Loop) {
	for _, s := range stmts {
		switch x := s.(type) {
		case *Loop:
			n := len(w.paths)
			w.paths = append(append(w.paths, path...), x)
			w.stmts(x.Body, w.paths[n:len(w.paths):len(w.paths)])
		case AssignF:
			w.visit(x.Arr, x.Idx, true, path)
			w.fexpr(x.RHS, path)
			w.idx(x.Idx, path)
		case AssignI:
			w.visit(x.Arr, x.Idx, true, path)
			w.iexpr(x.RHS, path)
			w.idx(x.Idx, path)
		case SetScalarF:
			w.fexpr(x.RHS, path)
		case SetScalarI:
			w.iexpr(x.RHS, path)
		case If:
			w.bexpr(x.Cond, path)
			w.stmts(x.Then, path)
			w.stmts(x.Else, path)
		}
	}
}

func (w *refWalk) idx(idx []IExpr, path []*Loop) {
	for _, e := range idx {
		w.iexpr(e, path)
	}
}

func (w *refWalk) fexpr(e FExpr, path []*Loop) {
	switch x := e.(type) {
	case FLoad:
		w.visit(x.Arr, x.Idx, false, path)
		w.idx(x.Idx, path)
	case FBin:
		w.fexpr(x.A, path)
		w.fexpr(x.B, path)
	case FNeg:
		w.fexpr(x.X, path)
	case FromInt:
		w.iexpr(x.X, path)
	case FCall:
		for _, arg := range x.Args {
			w.fexpr(arg, path)
		}
	}
}

func (w *refWalk) iexpr(e IExpr, path []*Loop) {
	switch x := e.(type) {
	case ILoad:
		w.visit(x.Arr, x.Idx, false, path)
		w.idx(x.Idx, path)
	case IBin:
		w.iexpr(x.A, path)
		w.iexpr(x.B, path)
	}
}

func (w *refWalk) bexpr(e BExpr, path []*Loop) {
	switch x := e.(type) {
	case CmpI:
		w.iexpr(x.A, path)
		w.iexpr(x.B, path)
	case CmpF:
		w.fexpr(x.A, path)
		w.fexpr(x.B, path)
	case And:
		w.bexpr(x.A, path)
		w.bexpr(x.B, path)
	case Or:
		w.bexpr(x.A, path)
		w.bexpr(x.B, path)
	case Not:
		w.bexpr(x.X, path)
	}
}
