package locality

import "repro/internal/ir"

// affineForm accumulates the decomposition of integer expressions:
// sum(coeffs[slot]·slot) + konst, plus flags for what could not be
// captured. It is filled in place (affine adds a scaled expression to it),
// so decomposing a reference allocates no form per expression node; coeffs
// and indirectSlots are the caller's maps.
type affineForm struct {
	coeffs        map[int]int64
	konst         int64
	indirect      bool         // contains an array load
	residual      bool         // contains non-affine terms
	indirectSlots map[int]bool // loop slots driving indirect loads
}

// decompose linearizes a reference's subscripts against the array's
// resolved strides and records the affine form on the ref. Strides along
// dimensions whose extent was not compile-time-known make the affected
// terms residual, exactly as a real compiler loses information when a
// matrix's leading dimensions are symbolic.
func (a *Analysis) decompose(r *Ref) {
	inPath := func(slot int) bool {
		for _, l := range r.Path {
			if l.Slot == slot {
				return true
			}
		}
		return false
	}

	// Which strides does the compiler actually know? The innermost
	// dimension's stride is always 1; outer strides require the inner
	// extents to be known.
	prod := true
	total := affineForm{coeffs: r.Coeffs, indirectSlots: r.IndirectSlots}
	for d := len(r.Arr.DimExprs) - 1; d >= 0; d-- {
		if d < len(r.Idx) {
			if prod {
				a.affine(&total, r.Idx[d], r.Arr.Strides[d], inPath)
			} else {
				// The compiler cannot scale this dimension's contribution;
				// treat any variation in it as residual.
				f := affineForm{coeffs: map[int]int64{}, indirectSlots: r.IndirectSlots}
				a.affine(&f, r.Idx[d], 1, inPath)
				total.indirect = total.indirect || f.indirect
				total.residual = total.residual || f.residual || len(f.coeffs) > 0 || f.konst != 0
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
	r.Const = total.konst
	switch {
	case total.indirect:
		r.Kind = Indirect
	case total.residual:
		r.Kind = Opaque
	default:
		r.Kind = Dense
	}
}

// affine adds scale·e, decomposed over the slots isLoop accepts, to f.
func (a *Analysis) affine(f *affineForm, e ir.IExpr, scale int64, isLoop func(slot int) bool) {
	// A fully known expression is a constant, whatever its shape.
	if v, ok := ir.ConstEval(e, a.Known); ok {
		f.konst += scale * v
		return
	}
	switch x := e.(type) {
	case ir.ISlot:
		if isLoop(x.Slot) {
			f.coeffs[x.Slot] += scale
		} else {
			f.residual = true // unknown parameter or mutable scalar: not analyzable
		}
		return
	case ir.ILoad:
		f.indirect = true
		inner := affineForm{coeffs: map[int]int64{}, indirectSlots: f.slots()}
		for _, ix := range x.Idx {
			a.affine(&inner, ix, 1, isLoop)
		}
		for s := range inner.coeffs {
			f.indirectSlots[s] = true
		}
		return
	case ir.IBin:
		switch x.Op {
		case ir.IAdd:
			a.affine(f, x.A, scale, isLoop)
			a.affine(f, x.B, scale, isLoop)
			return
		case ir.ISub:
			a.affine(f, x.A, scale, isLoop)
			a.affine(f, x.B, -scale, isLoop)
			return
		case ir.IMul:
			// Affine only if one side is a known constant.
			if v, ok := ir.ConstEval(x.A, a.Known); ok {
				a.affine(f, x.B, scale*v, isLoop)
				return
			}
			if v, ok := ir.ConstEval(x.B, a.Known); ok {
				a.affine(f, x.A, scale*v, isLoop)
				return
			}
		case ir.IShl:
			if v, ok := ir.ConstEval(x.B, a.Known); ok && v >= 0 && v < 62 {
				a.affine(f, x.A, scale*(int64(1)<<uint(v)), isLoop)
				return
			}
		}
	}
	// Division, modulo, variable shifts, products of variables: residual.
	f.residual = true
	collectIndirectSlots(e, f, isLoop)
}

// slots returns f's indirect-slot set, made on first use.
func (f *affineForm) slots() map[int]bool {
	if f.indirectSlots == nil {
		f.indirectSlots = map[int]bool{}
	}
	return f.indirectSlots
}

// collectIndirectSlots records indirect loads (and their driving loops)
// buried inside otherwise non-affine expressions.
func collectIndirectSlots(e ir.IExpr, f *affineForm, isLoop func(slot int) bool) {
	switch x := e.(type) {
	case ir.ILoad:
		f.indirect = true
		for _, ix := range x.Idx {
			collectSlots(ix, f.slots(), isLoop)
		}
	case ir.IBin:
		collectIndirectSlots(x.A, f, isLoop)
		collectIndirectSlots(x.B, f, isLoop)
	}
}

func collectSlots(e ir.IExpr, out map[int]bool, isLoop func(slot int) bool) {
	switch x := e.(type) {
	case ir.ISlot:
		if isLoop(x.Slot) {
			out[x.Slot] = true
		}
	case ir.IBin:
		collectSlots(x.A, out, isLoop)
		collectSlots(x.B, out, isLoop)
	case ir.ILoad:
		for _, ix := range x.Idx {
			collectSlots(ix, out, isLoop)
		}
	}
}

// TripCount returns the compile-time trip count of a loop, or
// (DefaultEstTrip, false) when the bounds are unknown. Bounds that are
// affine in outer loop variables with matching coefficients — the
// (i+1)*w .. i*w pattern of blocked codes — are handled by symbolic
// differencing. Loops may override the default estimate via EstTrip.
func (a *Analysis) TripCount(l *ir.Loop) (int64, bool) {
	lo, ok1 := ir.ConstEval(l.Lo, a.Known)
	hi, ok2 := ir.ConstEval(l.Hi, a.Known)
	if ok1 && ok2 {
		n := (hi - lo + l.Step - 1) / l.Step
		if n < 0 {
			n = 0
		}
		return n, true
	}
	// Symbolic differencing: treat every slot as a symbol and subtract.
	allSlots := allSlotsIn(l.Lo, allSlotsIn(l.Hi, map[int]bool{}))
	for s := range a.Known {
		delete(allSlots, s) // known params evaluate, they are not symbols
	}
	symbol := func(slot int) bool { return allSlots[slot] }
	flo, fhi := affineForm{coeffs: map[int]int64{}}, affineForm{coeffs: map[int]int64{}}
	a.affine(&flo, l.Lo, 1, symbol)
	a.affine(&fhi, l.Hi, 1, symbol)
	if !flo.residual && !fhi.residual && !flo.indirect && !fhi.indirect {
		same := len(flo.coeffs) == len(fhi.coeffs)
		for s, c := range flo.coeffs {
			if fhi.coeffs[s] != c {
				same = false
				break
			}
		}
		if same {
			n := (fhi.konst - flo.konst + l.Step - 1) / l.Step
			if n < 0 {
				n = 0
			}
			return n, true
		}
	}
	if l.EstTrip > 0 {
		return l.EstTrip, false
	}
	return a.DefaultEstTrip, false
}

// allSlotsIn collects every slot read by an expression.
func allSlotsIn(e ir.IExpr, out map[int]bool) map[int]bool {
	switch x := e.(type) {
	case ir.ISlot:
		out[x.Slot] = true
	case ir.IBin:
		allSlotsIn(x.A, out)
		allSlotsIn(x.B, out)
	case ir.ILoad:
		for _, ix := range x.Idx {
			allSlotsIn(ix, out)
		}
	}
	return out
}
