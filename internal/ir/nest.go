// Affine-nest analysis: the shared vocabulary between the prefetching
// compiler and the executor's nest compiler. A loop nest is summarized
// by which integer slots its body writes, which expressions are pure
// (evaluable without touching simulated memory), and which subscripts
// are affine in an induction variable with a loop-invariant remainder.
// The executor uses these answers to decide, per loop and per access
// site, whether a specialized driver is exact — and when it is not, to
// say why.
package ir

// WrittenSlots adds every integer slot the statement list assigns to
// dst: scalar assignments and the induction variables of nested loops.
// (Float scalars live in a different slot space and are irrelevant to
// subscript analysis.) A nil dst allocates a fresh map.
func WrittenSlots(body []Stmt, dst map[int]bool) map[int]bool {
	if dst == nil {
		dst = make(map[int]bool)
	}
	for _, s := range body {
		switch x := s.(type) {
		case *Loop:
			dst[x.Slot] = true
			WrittenSlots(x.Body, dst)
		case SetScalarI:
			dst[x.Slot] = true
		case If:
			WrittenSlots(x.Then, dst)
			WrittenSlots(x.Else, dst)
		}
	}
	return dst
}

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
// env binds, combined by operators that cannot trap.
func StaticTrip(l *Loop, env map[int]int64) (lo, trip int64, ok bool) {
	if l.Step <= 0 || MayTrapIExpr(l.Lo) || MayTrapIExpr(l.Hi) {
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

// AffineCoeff reports whether x = coeff·slot + rest, with rest invariant
// under the given predicate (invariant(s) answers "is slot s unchanged
// across the loop?"), and returns the compile-time coefficient. Indirect
// (ILoad) and float-derived (IFromF) subscripts are never affine.
// Division, modulus, shifts, and min/max preserve affine form only when
// both operands are invariant (coefficient zero).
func AffineCoeff(x IExpr, slot int, invariant func(int) bool) (int64, bool) {
	switch e := x.(type) {
	case IConst:
		return 0, true
	case ISlot:
		if e.Slot == slot {
			return 1, true
		}
		if invariant != nil && !invariant(e.Slot) {
			return 0, false
		}
		return 0, true
	case IBin:
		ca, oka := AffineCoeff(e.A, slot, invariant)
		cb, okb := AffineCoeff(e.B, slot, invariant)
		if !oka || !okb {
			return 0, false
		}
		switch e.Op {
		case IAdd:
			return ca + cb, true
		case ISub:
			return ca - cb, true
		case IMul:
			if va, ok := ConstFold(e.A); ok {
				return va * cb, true
			}
			if vb, ok := ConstFold(e.B); ok {
				return ca * vb, true
			}
			return 0, ca == 0 && cb == 0
		default:
			return 0, ca == 0 && cb == 0
		}
	}
	return 0, false
}

// LoopSummary is the nest-level shape of one loop, as the executor's
// specializer needs it.
type LoopSummary struct {
	// HasIf is true when the body contains control flow.
	HasIf bool
	// HasHint is true when the body contains a prefetch or release hint
	// (a potential kernel crossing inside the iteration).
	HasHint bool
	// WritesInductionVar is true when the body assigns the loop's own
	// slot.
	WritesInductionVar bool
	// Written holds every integer slot the body writes, including
	// nested induction variables.
	Written map[int]bool
}

// Summarize computes the LoopSummary of l's body.
func Summarize(l *Loop) LoopSummary {
	s := LoopSummary{Written: WrittenSlots(l.Body, nil)}
	s.WritesInductionVar = s.Written[l.Slot]
	s.scan(l.Body)
	return s
}

func (s *LoopSummary) scan(body []Stmt) {
	for _, st := range body {
		switch x := st.(type) {
		case *Loop:
			s.scan(x.Body)
		case If:
			s.HasIf = true
			s.scan(x.Then)
			s.scan(x.Else)
		case Prefetch, Release, PrefetchRelease:
			s.HasHint = true
		}
	}
}
