// Affine-nest analysis: the questions the prefetching compiler's locality
// analysis and the executor's nest compiler both ask of a loop nest. Which
// expressions are pure (evaluable without touching simulated memory) or
// may trap, which slots an expression reads, which loops have a
// compile-time trip count, and — the one decomposition both rest on — what
// an integer expression is in terms of a chosen set of variable slots.
// Locality decomposes subscripts over their enclosing loops and loop
// bounds over every symbol they read; the executor asks whether a
// subscript is affine in one induction variable with a loop-invariant
// remainder, to decide per access site whether a page-run driver is exact.
package ir

import "slices"

// PureIExpr reports whether x can be evaluated without any simulated
// memory access or float conversion: only constants, slot reads, and
// integer arithmetic. Pure expressions may be re-evaluated or reordered
// freely between kernel crossings — their value depends only on the
// integer slot state.
func PureIExpr(x IExpr) bool {
	switch e := x.(type) {
	case IConst, ISlot:
		return true
	case IBin:
		return PureIExpr(e.A) && PureIExpr(e.B)
	}
	return false
}

// MayTrapIExpr reports whether evaluating x can panic on its own
// (division or modulus by zero). Pure, trap-free expressions are the
// ones an optimizer may hoist to a place the original program would
// not have evaluated them.
func MayTrapIExpr(x IExpr) bool {
	if e, ok := x.(IBin); ok {
		if e.Op == IDiv || e.Op == IMod {
			return true
		}
		return MayTrapIExpr(e.A) || MayTrapIExpr(e.B)
	}
	return false
}

// IExprSlots calls f for every integer slot x reads (with repetition).
func IExprSlots(x IExpr, f func(slot int)) {
	switch e := x.(type) {
	case ISlot:
		f(e.Slot)
	case IBin:
		IExprSlots(e.A, f)
		IExprSlots(e.B, f)
	case ILoad:
		for _, ix := range e.Idx {
			IExprSlots(ix, f)
		}
	case IFromF:
		// Float expressions read float slots, not integer slots; the
		// integer subscripts inside any FLoad still matter.
		fexprISlots(e.X, f)
	}
}

func fexprISlots(x FExpr, f func(slot int)) {
	switch e := x.(type) {
	case FLoad:
		for _, ix := range e.Idx {
			IExprSlots(ix, f)
		}
	case FBin:
		fexprISlots(e.A, f)
		fexprISlots(e.B, f)
	case FNeg:
		fexprISlots(e.X, f)
	case FromInt:
		IExprSlots(e.X, f)
	case FCall:
		for _, a := range e.Args {
			fexprISlots(a, f)
		}
	}
}

// ConstFold evaluates x when it is a compile-time integer constant
// (literals combined with +, -, ×).
func ConstFold(x IExpr) (int64, bool) {
	switch e := x.(type) {
	case IConst:
		return e.Val, true
	case IBin:
		va, oka := ConstFold(e.A)
		vb, okb := ConstFold(e.B)
		if !oka || !okb {
			return 0, false
		}
		switch e.Op {
		case IAdd:
			return va + vb, true
		case ISub:
			return va - vb, true
		case IMul:
			return va * vb, true
		}
	}
	return 0, false
}

// StaticTrip returns l's first induction value and its trip count when
// both bounds are compile-time constants under env: literals and the slots
// env binds (ConstEval refuses a zero divisor, the one operator that could
// trap).
func StaticTrip(l *Loop, env map[int]int64) (lo, trip int64, ok bool) {
	if l.Step <= 0 {
		return 0, 0, false
	}
	lo, okLo := ConstEval(l.Lo, env)
	hi, okHi := ConstEval(l.Hi, env)
	if !okLo || !okHi {
		return 0, 0, false
	}
	if hi <= lo {
		return lo, 0, true
	}
	return lo, (hi - lo + l.Step - 1) / l.Step, true
}

// SlotRole is what an affine decomposition makes of a slot it reads
// (one ConstEval could not fold).
type SlotRole uint8

const (
	// Opaque slots may hold anything: a term over one is residual.
	Opaque SlotRole = iota
	// Var slots are the form's variables: a term over one gets a
	// coefficient.
	Var
	// Fixed slots are unknown but hold one value wherever the form is
	// used: a term over one is part of the form's invariant remainder.
	Fixed
)

// Term is one variable of an affine form and its coefficient.
type Term struct {
	Slot  int
	Coeff int64
}

// Affine is an integer expression decomposed over variable slots:
// Σ Coeff·Slot over Terms, plus Const, plus what could not be captured.
// Decompose fills it in place, so a form reused across expressions
// allocates nothing once its slices have grown.
type Affine struct {
	Terms    []Term // one per variable read, in first-read order; a coefficient may cancel to 0
	Const    int64  // the compile-time constant part
	Rest     bool   // a term over Fixed slots (or an operator ConstEval would not fold) of unknown value
	Residual bool   // a term that is not affine in the variables
	Indirect bool   // an array load
	Loaded   []int  // the variables array loads' subscripts read, each once: what drives an indirect reference
	base     int    // Terms[base:] belongs to the expression being decomposed
}

// Decompose resets f to the decomposition of e. A subexpression ConstEval
// folds under env is a constant, whatever its shape; role says what every
// other slot read is. Sums, differences, products with a constant and
// shifts by a constant are linear. Any other operator over operands that
// do not vary (no variable coefficient, no residual, no load) is part of
// the invariant remainder; anything else is residual. An array load makes
// the form indirect, driven by the variables of its subscripts; a float
// conversion is residual.
func (f *Affine) Decompose(e IExpr, env map[int]int64, role func(slot int) SlotRole) {
	*f = Affine{Terms: f.Terms[:0], Loaded: f.Loaded[:0]}
	f.add(e, 1, env, role)
}

// Coeff returns the coefficient of slot (0 when f does not read it).
func (f *Affine) Coeff(slot int) int64 {
	for _, t := range f.Terms {
		if t.Slot == slot {
			return t.Coeff
		}
	}
	return 0
}

// add adds scale·e to f.
func (f *Affine) add(e IExpr, scale int64, env map[int]int64, role func(slot int) SlotRole) {
	if v, ok := ConstEval(e, env); ok {
		f.Const += scale * v
		return
	}
	switch x := e.(type) {
	case ISlot:
		switch role(x.Slot) {
		case Var:
			f.term(x.Slot, scale)
		case Fixed:
			f.Rest = true
		default:
			f.Residual = true
		}
		return
	case ILoad:
		for _, ix := range x.Idx {
			terms, _ := f.apart(ix, env, role)
			for _, t := range terms {
				f.load(t.Slot)
			}
		}
		f.Indirect = true
		return
	case IBin:
		switch x.Op {
		case IAdd:
			f.add(x.A, scale, env, role)
			f.add(x.B, scale, env, role)
			return
		case ISub:
			f.add(x.A, scale, env, role)
			f.add(x.B, -scale, env, role)
			return
		case IMul:
			if v, ok := ConstEval(x.A, env); ok {
				f.add(x.B, scale*v, env, role)
				return
			}
			if v, ok := ConstEval(x.B, env); ok {
				f.add(x.A, scale*v, env, role)
				return
			}
		case IShl:
			if v, ok := ConstEval(x.B, env); ok && v >= 0 && v < 62 {
				f.add(x.A, scale*(int64(1)<<uint(v)), env, role)
				return
			}
		}
		if f.fixed(x.A, env, role) && f.fixed(x.B, env, role) {
			f.Rest = true
			return
		}
	}
	f.Residual = true
	f.loads(e, role, false)
}

// term adds c to slot's coefficient.
func (f *Affine) term(slot int, c int64) {
	for k := f.base; k < len(f.Terms); k++ {
		if f.Terms[k].Slot == slot {
			f.Terms[k].Coeff += c
			return
		}
	}
	f.Terms = append(f.Terms, Term{slot, c})
}

// fixed reports whether e does not vary: no variable with a nonzero
// coefficient, nothing residual, no load.
func (f *Affine) fixed(e IExpr, env map[int]int64, role func(slot int) SlotRole) bool {
	terms, opaque := f.apart(e, env, role)
	return !opaque && !slices.ContainsFunc(terms, func(t Term) bool { return t.Coeff != 0 })
}

// apart decomposes e beside the form being filled, not into it: it
// returns e's terms (valid until f next grows) and whether e is residual
// or loads, and leaves f's constant, flags and terms as they were. What
// the loads inside e record in Loaded stays.
func (f *Affine) apart(e IExpr, env map[int]int64, role func(slot int) SlotRole) (terms []Term, opaque bool) {
	konst, rest, residual, indirect, base := f.Const, f.Rest, f.Residual, f.Indirect, f.base
	f.Residual, f.Indirect, f.base = false, false, len(f.Terms)
	f.add(e, 1, env, role)
	terms, opaque = f.Terms[f.base:], f.Residual || f.Indirect
	f.Terms = f.Terms[:f.base]
	f.Const, f.Rest, f.Residual, f.Indirect, f.base = konst, rest, residual, indirect, base
	return terms, opaque
}

// loads records the array loads inside a residual term: each makes f
// indirect, driven by every variable its subscripts read (inLoad: e is
// one of them).
func (f *Affine) loads(e IExpr, role func(slot int) SlotRole, inLoad bool) {
	switch x := e.(type) {
	case ISlot:
		if inLoad && role(x.Slot) == Var {
			f.load(x.Slot)
		}
	case IBin:
		f.loads(x.A, role, inLoad)
		f.loads(x.B, role, inLoad)
	case ILoad:
		f.Indirect = true
		for _, ix := range x.Idx {
			f.loads(ix, role, true)
		}
	}
}

func (f *Affine) load(slot int) {
	if !slices.Contains(f.Loaded, slot) {
		f.Loaded = append(f.Loaded, slot)
	}
}
