package locality

import "repro/internal/ir"

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
	for d := len(r.Arr.DimExprs) - 1; d >= 0; d-- {
		if d < len(r.Idx) {
			f.Decompose(r.Idx[d], a.Known, role)
			indirect = indirect || f.Indirect
			residual = residual || f.Residual || f.Rest
			for _, s := range f.Loaded {
				r.IndirectSlots[s] = true
			}
			if prod {
				stride := r.Arr.Strides[d]
				for _, t := range f.Terms {
					r.Coeffs[t.Slot] += t.Coeff * stride
				}
				r.Const += f.Const * stride
			} else {
				// The compiler cannot scale this dimension's contribution;
				// treat any variation in it as residual.
				residual = residual || len(f.Terms) > 0 || f.Const != 0
			}
		}
		if _, ok := ir.ConstEval(r.Arr.DimExprs[d], a.Known); !ok {
			prod = false
		}
	}
	for s, c := range r.Coeffs {
		if c == 0 {
			delete(r.Coeffs, s)
		}
	}
	switch {
	case indirect:
		r.Kind = Indirect
	case residual:
		r.Kind = Opaque
	default:
		r.Kind = Dense
	}
}

// TripCount returns the compile-time trip count of a loop, or
// (DefaultEstTrip, false) when the bounds are unknown. Bounds that are
// affine in outer loop variables with matching coefficients — the
// (i+1)*w .. i*w pattern of blocked codes — are handled by symbolic
// differencing.
func (a *Analysis) TripCount(l *ir.Loop) (int64, bool) {
	if _, n, ok := ir.StaticTrip(l, a.Known); ok {
		return n, true
	}
	// Symbolic differencing: every slot the bounds read is a symbol.
	flo, fhi := &a.lo, &a.hi
	flo.Decompose(l.Lo, a.Known, symbol)
	fhi.Decompose(l.Hi, a.Known, symbol)
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
