// The operation-count model (DESIGN.md §6): what each statement charges
// the simulated CPU, and which IR neither executor accepts. Both
// compilers — the bytecode compiler (kcompile.go) and the closure oracle
// of the tests (oracle_test.go) — call stmtCost or loopCost once per statement, charge what
// it returns, and lower only what it accepted, so the two cannot disagree
// on a count or on a rejection.
package exec

import (
	"fmt"
	"math"

	"repro/internal/ir"
)

// Costs, in machine operations (×hw.OpTime each).
const (
	costArith  = 1
	costLoad   = 2 // address + access
	costStore  = 2
	costLoop   = 2 // increment + branch, charged per iteration
	costSqrt   = 15
	costAbs    = 2
	costLog    = 25
	costExp    = 25
	costTrig   = 30
	costPow    = 40
	costRandlc = 12
)

func intrinsicCost(fn ir.Intrinsic) int64 {
	switch fn {
	case ir.Sqrt:
		return costSqrt
	case ir.Abs:
		return costAbs
	case ir.Log:
		return costLog
	case ir.Exp:
		return costExp
	case ir.Sin, ir.Cos:
		return costTrig
	case ir.Pow:
		return costPow
	case ir.Randlc:
		return costRandlc
	}
	return costArith
}

// stmtCost returns the operations one execution of a non-loop statement
// charges, up front, before it evaluates anything: its expressions'
// counts plus the statement's own. An If's branches are statements of
// their own. The error is the first construct the walk rejects.
func stmtCost(s ir.Stmt) (int64, error) {
	var w costWalk
	n := w.stmt(s)
	return n, w.err
}

func (w *costWalk) stmt(s ir.Stmt) (n int64) {
	switch x := s.(type) {
	case ir.AssignF:
		n = w.index(x.Arr, x.Idx) + w.fexpr(x.RHS) + costStore
	case ir.AssignI:
		n = w.index(x.Arr, x.Idx) + w.iexpr(x.RHS) + costStore
	case ir.SetScalarF:
		n = w.fexpr(x.RHS) + costArith
	case ir.SetScalarI:
		n = w.iexpr(x.RHS) + costArith
	case ir.If:
		n = w.bexpr(x.Cond) + costArith
	case ir.Prefetch:
		n = costArith + w.hintSide(x.Arr, x.Idx, x.Pages)
	case ir.Release:
		n = costArith + w.hintSide(x.Arr, x.Idx, x.Pages)
	case ir.PrefetchRelease:
		n = costArith + w.hintSide(x.PfArr, x.PfIdx, x.PfPages) +
			w.hintSide(x.RelArr, x.RelIdx, x.RelPages)
	default:
		w.fail("unknown statement %T", s)
	}
	return n
}

// loopCost returns a loop's two charges: head once per entry (its bound
// expressions) and iter once per iteration, before the body.
func loopCost(l *ir.Loop) (head, iter int64, err error) {
	var w costWalk
	if l.Step <= 0 {
		w.fail("loop %s has non-positive step %d", l.Var, l.Step)
	}
	head = w.iexpr(l.Lo) + w.iexpr(l.Hi)
	return head, costLoop, w.err
}

// costWalk sums operation counts over expressions, keeping the first
// rejection. With z set it is the sizing walk (kcompile.go) too, and
// counts what it walks into z: each array reference w times.
type costWalk struct {
	err error
	z   *sizes
	w   int
}

func (w *costWalk) fail(format string, args ...interface{}) {
	if w.err == nil {
		w.err = fmt.Errorf("exec: "+format, args...)
	}
}

// index is the count of a subscript list: each subscript plus one
// operation to fold it into the address. Application accesses and hint
// addresses compute the same index (only the former bounds-check it).
func (w *costWalk) index(arr *ir.Array, idx []ir.IExpr) int64 {
	if w.z != nil {
		w.z.refs += w.w
		w.z.dims += w.w * len(idx)
	}
	if len(idx) != len(arr.Strides) {
		w.fail("array %s: %d subscripts for %d dims", arr.Name, len(idx), len(arr.Strides))
		return 0
	}
	var n int64
	for _, ix := range idx {
		n += w.iexpr(ix) + costArith
	}
	return n
}

// hintSide is the count of one (array, subscripts, pages) side of a
// hint: the index, the page count, and the two clamps.
func (w *costWalk) hintSide(arr *ir.Array, idx []ir.IExpr, pages ir.IExpr) int64 {
	return w.index(arr, idx) + w.iexpr(pages) + 2*costArith
}

func (w *costWalk) iexpr(x ir.IExpr) int64 {
	if w.z != nil {
		w.z.iexpr(x)
	}
	switch e := x.(type) {
	case ir.IConst:
		return 0
	case ir.ISlot:
		return costArith
	case ir.IBin:
		n := w.iexpr(e.A) + w.iexpr(e.B) + costArith
		if e.Op > ir.IMax {
			w.fail("unknown int op %d", e.Op)
		}
		return n
	case ir.ILoad:
		return w.index(e.Arr, e.Idx) + costLoad
	case ir.IFromF:
		return w.fexpr(e.X) + costArith
	}
	w.fail("unknown int expr %T", x)
	return 0
}

func (w *costWalk) fexpr(x ir.FExpr) int64 {
	switch e := x.(type) {
	case ir.FConst:
		if w.z != nil {
			w.z.literal(1, math.Float64bits(e.Val))
		}
		return 0
	case ir.FScalar:
		return costArith
	case ir.FLoad:
		return w.index(e.Arr, e.Idx) + costLoad
	case ir.FBin:
		n := w.fexpr(e.A) + w.fexpr(e.B) + costArith
		if e.Op > ir.FMaxOp {
			w.fail("unknown float op %d", e.Op)
		}
		return n
	case ir.FNeg:
		return w.fexpr(e.X) + costArith
	case ir.FromInt:
		return w.iexpr(e.X) + costArith
	case ir.FCall:
		return w.call(e)
	}
	w.fail("unknown float expr %T", x)
	return 0
}

func (w *costWalk) call(e ir.FCall) int64 {
	want := 1
	switch {
	case e.Fn == ir.Pow:
		want = 2
	case e.Fn == ir.Randlc:
		want = 0
	case e.Fn > ir.Randlc:
		w.fail("unknown intrinsic %d", e.Fn)
		return 0
	}
	if len(e.Args) != want {
		w.fail("intrinsic %s takes %d args, got %d", e.Fn.Name(), want, len(e.Args))
		return 0
	}
	n := intrinsicCost(e.Fn)
	for _, a := range e.Args {
		n += w.fexpr(a)
	}
	return n
}

func (w *costWalk) bexpr(x ir.BExpr) int64 {
	switch e := x.(type) {
	case ir.CmpI:
		return w.iexpr(e.A) + w.iexpr(e.B) + costArith
	case ir.CmpF:
		return w.fexpr(e.A) + w.fexpr(e.B) + costArith
	case ir.And:
		return w.bexpr(e.A) + w.bexpr(e.B) + costArith
	case ir.Or:
		return w.bexpr(e.A) + w.bexpr(e.B) + costArith
	case ir.Not:
		return w.bexpr(e.X) + costArith
	}
	w.fail("unknown bool expr %T", x)
	return 0
}
