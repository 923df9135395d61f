// The closure-tree oracle: the reference semantics the kernel bytecode is
// differentially tested against. Each IR node becomes a Go closure (a
// standard fast-interpreter technique: per-element dispatch is a function
// call, not a tree walk). Compile builds it under Options.NoFastPath and
// nowhere else. Statements are validated and costed by cost.go before
// their closures are built, so the expression builders below cannot fail.
package exec

import (
	"fmt"
	"math"

	"repro/internal/ir"
)

type stmtFn func(*Env)
type iFn func(*Env) int64
type fFn func(*Env) float64
type bFn func(*Env) bool

// unvalidated is the panic for IR that cost.go accepts and a builder
// below does not know: a bug in this package, never an input error.
func unvalidated(x interface{}) string {
	return fmt.Sprintf("exec: oracle cannot build %T %v", x, x)
}

func oracleStmts(list []ir.Stmt) (stmtFn, error) {
	fns := make([]stmtFn, len(list))
	for i, s := range list {
		f, err := oracleStmt(s)
		if err != nil {
			return nil, err
		}
		fns[i] = f
	}
	if len(fns) == 1 {
		return fns[0], nil
	}
	return func(e *Env) {
		for _, f := range fns {
			f(e)
		}
	}, nil
}

func oracleStmt(s ir.Stmt) (stmtFn, error) {
	if l, ok := s.(*ir.Loop); ok {
		return oracleLoop(l)
	}
	cost, err := stmtCost(s)
	if err != nil {
		return nil, err
	}
	switch x := s.(type) {
	case ir.AssignF:
		addr := oracleAddr(x.Arr, x.Idx)
		rhs := oracleFExpr(x.RHS)
		return func(e *Env) {
			e.vm.AddUserOps(cost)
			v := rhs(e)
			e.vm.StoreF64(addr(e), v)
		}, nil
	case ir.AssignI:
		addr := oracleAddr(x.Arr, x.Idx)
		rhs := oracleIExpr(x.RHS)
		return func(e *Env) {
			e.vm.AddUserOps(cost)
			v := rhs(e)
			e.vm.StoreI64(addr(e), v)
		}, nil
	case ir.SetScalarF:
		rhs := oracleFExpr(x.RHS)
		slot := x.Slot
		return func(e *Env) {
			e.vm.AddUserOps(cost)
			e.Floats[slot] = rhs(e)
		}, nil
	case ir.SetScalarI:
		rhs := oracleIExpr(x.RHS)
		slot := x.Slot
		return func(e *Env) {
			e.vm.AddUserOps(cost)
			e.Ints[slot] = rhs(e)
		}, nil
	case ir.If:
		cond := oracleBExpr(x.Cond)
		then, err := oracleStmts(x.Then)
		if err != nil {
			return nil, err
		}
		var els stmtFn
		if len(x.Else) > 0 {
			if els, err = oracleStmts(x.Else); err != nil {
				return nil, err
			}
		}
		return func(e *Env) {
			e.vm.AddUserOps(cost)
			if cond(e) {
				then(e)
			} else if els != nil {
				els(e)
			}
		}, nil
	case ir.Prefetch:
		return oracleHint(cost, x.Arr, x.Idx, x.Pages, nil, nil, nil), nil
	case ir.Release:
		return oracleHint(cost, nil, nil, nil, x.Arr, x.Idx, x.Pages), nil
	case ir.PrefetchRelease:
		return oracleHint(cost, x.PfArr, x.PfIdx, x.PfPages, x.RelArr, x.RelIdx, x.RelPages), nil
	}
	panic(unvalidated(s))
}

func oracleLoop(l *ir.Loop) (stmtFn, error) {
	head, iter, err := loopCost(l)
	if err != nil {
		return nil, err
	}
	lo := oracleIExpr(l.Lo)
	hi := oracleIExpr(l.Hi)
	body, err := oracleStmts(l.Body)
	if err != nil {
		return nil, err
	}
	slot, step := l.Slot, l.Step
	return func(e *Env) {
		e.vm.AddUserOps(head)
		h := hi(e)
		for v := lo(e); v < h; v += step {
			e.Ints[slot] = v
			e.vm.AddUserOps(iter)
			body(e)
		}
	}, nil
}

// oracleHint builds a prefetch and/or release statement into a
// run-time-layer call. Hint addresses are clamped, never bounds-checked:
// non-binding hints must be safe to issue speculatively past the end of
// an array.
func oracleHint(cost int64, pfArr *ir.Array, pfIdx []ir.IExpr, pfPages ir.IExpr,
	relArr *ir.Array, relIdx []ir.IExpr, relPages ir.IExpr) stmtFn {

	var pfPage, relPage func(*Env) (page, n int64)
	if pfArr != nil {
		pfPage = oracleHintRange(pfArr, pfIdx, pfPages)
	}
	if relArr != nil {
		relPage = oracleHintRange(relArr, relIdx, relPages)
	}
	return func(e *Env) {
		e.vm.AddUserOps(cost)
		var pp, pn, rp, rn int64
		if pfPage != nil {
			pp, pn = pfPage(e)
		}
		if relPage != nil {
			rp, rn = relPage(e)
		}
		switch {
		case pn > 0 && rn > 0:
			e.rt.PrefetchRelease(pp, pn, rp, rn)
		case pn > 0:
			e.rt.Prefetch(pp, pn)
		case rn > 0:
			e.rt.Release(rp, rn)
		}
	}
}

// oracleHintRange builds one side of a hint. Like the call it models, it
// computes its address once: the index, its clamp into the array and the
// page, then the page count and its clamp to the array's last page.
func oracleHintRange(arr *ir.Array, idx []ir.IExpr, pages ir.IExpr) func(*Env) (page, n int64) {
	lin := oracleLinearIndex(arr, idx)
	pagesFn := oracleIExpr(pages)
	base := arr.Base
	elems := arr.Elems
	return func(e *Env) (int64, int64) {
		li := lin(e)
		if li < 0 {
			li = 0
		}
		if li >= elems {
			li = elems - 1
		}
		p := e.vm.PageOf(base + li*ir.ElemSize)
		n := pagesFn(e)
		if lastPage := e.vm.PageOf(base + elems*ir.ElemSize - 1); p+n-1 > lastPage {
			n = lastPage - p + 1
		}
		return p, n
	}
}

// oracleLinearIndex builds a multi-dimensional subscript into a linear
// element index, without bounds checks (hint path only).
func oracleLinearIndex(arr *ir.Array, idx []ir.IExpr) iFn {
	fns := make([]iFn, len(idx))
	for i, ix := range idx {
		fns[i] = oracleIExpr(ix)
	}
	strides := arr.Strides
	return func(e *Env) int64 {
		var li int64
		for i, f := range fns {
			li += f(e) * strides[i]
		}
		return li
	}
}

// oracleAddr builds a bounds-checked element address (the application
// path).
func oracleAddr(arr *ir.Array, idx []ir.IExpr) iFn {
	fns := make([]iFn, len(idx))
	for i, ix := range idx {
		fns[i] = oracleIExpr(ix)
	}
	name := arr.Name
	dims := arr.Dims
	strides := arr.Strides
	base := arr.Base
	return func(e *Env) int64 {
		var li int64
		for i, f := range fns {
			v := f(e)
			if v < 0 || v >= dims[i] {
				panic(subscriptTrap(name, v, dims[i], i))
			}
			li += v * strides[i]
		}
		return base + li*ir.ElemSize
	}
}

func oracleIExpr(x ir.IExpr) iFn {
	switch e := x.(type) {
	case ir.IConst:
		v := e.Val
		return func(*Env) int64 { return v }
	case ir.ISlot:
		s := e.Slot
		return func(e *Env) int64 { return e.Ints[s] }
	case ir.IBin:
		a := oracleIExpr(e.A)
		b := oracleIExpr(e.B)
		switch e.Op {
		case ir.IAdd:
			return func(e *Env) int64 { return a(e) + b(e) }
		case ir.ISub:
			return func(e *Env) int64 { return a(e) - b(e) }
		case ir.IMul:
			return func(e *Env) int64 { return a(e) * b(e) }
		case ir.IDiv:
			return func(e *Env) int64 { return a(e) / b(e) }
		case ir.IMod:
			return func(e *Env) int64 { return a(e) % b(e) }
		case ir.IShl:
			return func(e *Env) int64 { return a(e) << uint(b(e)) }
		case ir.IShr:
			return func(e *Env) int64 { return a(e) >> uint(b(e)) }
		case ir.IMin:
			return func(e *Env) int64 {
				x, y := a(e), b(e)
				if x < y {
					return x
				}
				return y
			}
		case ir.IMax:
			return func(e *Env) int64 {
				x, y := a(e), b(e)
				if x > y {
					return x
				}
				return y
			}
		}
	case ir.ILoad:
		addr := oracleAddr(e.Arr, e.Idx)
		return func(e *Env) int64 { return e.vm.LoadI64(addr(e)) }
	case ir.IFromF:
		f := oracleFExpr(e.X)
		return func(e *Env) int64 { return int64(f(e)) }
	}
	panic(unvalidated(x))
}

func oracleFExpr(x ir.FExpr) fFn {
	switch e := x.(type) {
	case ir.FConst:
		v := e.Val
		return func(*Env) float64 { return v }
	case ir.FScalar:
		s := e.Slot
		return func(e *Env) float64 { return e.Floats[s] }
	case ir.FLoad:
		addr := oracleAddr(e.Arr, e.Idx)
		return func(e *Env) float64 { return e.vm.LoadF64(addr(e)) }
	case ir.FBin:
		a := oracleFExpr(e.A)
		b := oracleFExpr(e.B)
		switch e.Op {
		case ir.FAdd:
			return func(e *Env) float64 { return a(e) + b(e) }
		case ir.FSub:
			return func(e *Env) float64 { return a(e) - b(e) }
		case ir.FMul:
			return func(e *Env) float64 { return a(e) * b(e) }
		case ir.FDiv:
			return func(e *Env) float64 { return a(e) / b(e) }
		case ir.FMinOp:
			return func(e *Env) float64 {
				x, y := a(e), b(e)
				if x < y {
					return x
				}
				return y
			}
		case ir.FMaxOp:
			return func(e *Env) float64 {
				x, y := a(e), b(e)
				if x > y {
					return x
				}
				return y
			}
		}
	case ir.FNeg:
		a := oracleFExpr(e.X)
		return func(e *Env) float64 { return -a(e) }
	case ir.FromInt:
		a := oracleIExpr(e.X)
		return func(e *Env) float64 { return float64(a(e)) }
	case ir.FCall:
		return oracleCall(e)
	}
	panic(unvalidated(x))
}

func oracleCall(e ir.FCall) fFn {
	args := make([]fFn, len(e.Args))
	for i, a := range e.Args {
		args[i] = oracleFExpr(a)
	}
	switch e.Fn {
	case ir.Sqrt:
		return func(e *Env) float64 { return math.Sqrt(args[0](e)) }
	case ir.Abs:
		return func(e *Env) float64 { return math.Abs(args[0](e)) }
	case ir.Log:
		return func(e *Env) float64 { return math.Log(args[0](e)) }
	case ir.Exp:
		return func(e *Env) float64 { return math.Exp(args[0](e)) }
	case ir.Sin:
		return func(e *Env) float64 { return math.Sin(args[0](e)) }
	case ir.Cos:
		return func(e *Env) float64 { return math.Cos(args[0](e)) }
	case ir.Pow:
		return func(e *Env) float64 { return math.Pow(args[0](e), args[1](e)) }
	case ir.Randlc:
		return func(e *Env) float64 { return e.randlc() }
	}
	panic(unvalidated(e))
}

func oracleBExpr(x ir.BExpr) bFn {
	switch e := x.(type) {
	case ir.CmpI:
		a := oracleIExpr(e.A)
		b := oracleIExpr(e.B)
		op := e.Op
		return func(e *Env) bool { return cmpI(op, a(e), b(e)) }
	case ir.CmpF:
		a := oracleFExpr(e.A)
		b := oracleFExpr(e.B)
		op := e.Op
		return func(e *Env) bool { return cmpF(op, a(e), b(e)) }
	case ir.And:
		a := oracleBExpr(e.A)
		b := oracleBExpr(e.B)
		return func(e *Env) bool { return a(e) && b(e) }
	case ir.Or:
		a := oracleBExpr(e.A)
		b := oracleBExpr(e.B)
		return func(e *Env) bool { return a(e) || b(e) }
	case ir.Not:
		a := oracleBExpr(e.X)
		return func(e *Env) bool { return !a(e) }
	}
	panic(unvalidated(x))
}
