package locality

import (
	"cmp"
	"slices"

	"repro/internal/ir"
)

// decompose linearizes a reference's subscripts against the array's
// resolved strides and records the affine form on the ref: the
// enclosing loops are its variables, a known parameter folds into a
// constant, and any other slot (an unknown parameter, a mutable scalar)
// makes the reference opaque. Strides along dimensions whose extent was
// not compile-time-known make the affected terms residual, exactly as a
// real compiler loses information when a matrix's leading dimensions are
// symbolic.
func (a *Analysis) decompose(r *Ref) {
	role := func(slot int) ir.SlotRole {
		for _, l := range r.Path {
			if l.Slot == slot {
				return ir.Var
			}
		}
		return ir.Opaque
	}

	// Which strides does the compiler actually know? The innermost
	// dimension's stride is always 1; outer strides require the inner
	// extents to be known.
	prod := true
	indirect, residual := false, false
	f := &a.lo
	t0, s0 := len(a.terms), len(a.slots)
	for d := len(r.Arr.DimExprs) - 1; d >= 0; d-- {
		if d < len(r.Idx) {
			f.Decompose(r.Idx[d], a.known, role)
			indirect = indirect || f.Indirect
			residual = residual || f.Residual || f.Rest
			for _, s := range f.Loaded {
				if !slices.Contains(a.slots[s0:], s) {
					a.slots = append(a.slots, s)
				}
			}
			if prod {
				stride := r.Arr.Strides[d]
				for _, t := range f.Terms {
					a.addTerm(t0, t.Slot, t.Coeff*stride)
				}
				r.Const += f.Const * stride
			} else {
				// The compiler cannot scale this dimension's contribution;
				// treat any variation in it as residual.
				residual = residual || len(f.Terms) > 0 || f.Const != 0
			}
		}
		if _, ok := ir.ConstEval(r.Arr.DimExprs[d], a.known); !ok {
			prod = false
		}
	}
	terms := slices.DeleteFunc(a.terms[t0:], func(t ir.Term) bool { return t.Coeff == 0 })
	slices.SortFunc(terms, func(x, y ir.Term) int { return cmp.Compare(x.Slot, y.Slot) })
	a.terms = a.terms[:t0+len(terms)]
	r.Terms = a.terms[t0:len(a.terms):len(a.terms)]
	r.IndirectSlots = a.slots[s0:len(a.slots):len(a.slots)]
	switch {
	case indirect:
		r.Kind = Indirect
	case residual:
		r.Kind = Opaque
	default:
		r.Kind = Dense
	}
}

// addTerm adds coeff·slot to the terms a.terms[t0:] of the ref being
// decomposed.
func (a *Analysis) addTerm(t0, slot int, coeff int64) {
	for i := t0; i < len(a.terms); i++ {
		if a.terms[i].Slot == slot {
			a.terms[i].Coeff += coeff
			return
		}
	}
	a.terms = append(a.terms, ir.Term{Slot: slot, Coeff: coeff})
}

// TripCount returns the compile-time trip count of a loop, or
// (DefaultEstTrip, false) when the bounds are unknown. Bounds that are
// affine in outer loop variables with matching coefficients — the
// (i+1)*w .. i*w pattern of blocked codes — are handled by symbolic
// differencing.
func (a *Analysis) TripCount(l *ir.Loop) (int64, bool) {
	if _, n, ok := ir.StaticTrip(l, a.known); ok {
		return n, true
	}
	// Symbolic differencing: every slot the bounds read is a symbol.
	flo, fhi := &a.lo, &a.hi
	flo.Decompose(l.Lo, a.known, symbol)
	fhi.Decompose(l.Hi, a.known, symbol)
	if linear(flo) && linear(fhi) && len(flo.Terms) == len(fhi.Terms) {
		same := true
		for _, t := range flo.Terms {
			if fhi.Coeff(t.Slot) != t.Coeff {
				same = false
				break
			}
		}
		if same {
			return max((fhi.Const-flo.Const+l.Step-1)/l.Step, 0), true
		}
	}
	return a.DefaultEstTrip, false
}

func symbol(int) ir.SlotRole { return ir.Var }

// linear reports whether f is exactly its terms plus its constant.
func linear(f *ir.Affine) bool { return !f.Residual && !f.Rest && !f.Indirect }
