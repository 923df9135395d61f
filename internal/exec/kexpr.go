// Expression lowering, hint lowering, and final assembly for the nest
// compiler (kcompile.go).
package exec

import (
	"repro/internal/ir"
)

// ---- integer expressions -------------------------------------------------

func (kc *kcompiler) iexpr(x ir.IExpr) uint16 {
	if kc.err != nil {
		return 0
	}
	switch e := x.(type) {
	case ir.IConst:
		return kc.iconstReg(e.Val)
	case ir.ISlot:
		if r := kc.bind[e.Slot]; r >= 0 {
			return uint16(r)
		}
		r := kc.iReg()
		kc.emit(kinstr{op: opISlot, dst: r, imm: int64(e.Slot)})
		kc.setBind(e.Slot, r)
		return r
	case ir.IBin:
		// x, not e, wherever an interface is wanted: boxing e again
		// allocates.
		if v, ok := ir.ConstFold(x); ok {
			return kc.iconstReg(v)
		}
		if ir.PureIExpr(x) {
			k := keyI(x)
			if r, ok := kc.lookupCse(k, x); ok {
				return r
			}
			if r, ok := kc.tryHoist(x, k); ok {
				return r
			}
			r := kc.compileIBin(e)
			kc.setCse(k, cseEnt{e: x, r: r}, kc.slotsOf(x))
			return r
		}
		return kc.compileIBin(e)
	case ir.ILoad:
		r := kc.iReg()
		kc.access(opLoadI1, opLoadIA, opLoadIS, e.Arr, e.Idx, r)
		return r
	case ir.IFromF:
		f := kc.fexpr(e.X)
		r := kc.iReg()
		kc.emit(kinstr{op: opIFromF, dst: r, a: f})
		return r
	}
	return 0 // unreachable: stmtCost validated the statement
}

// lookupCse checks the local table, then hoisted invariants of every
// enclosing loop (their code dominates the current position).
func (kc *kcompiler) lookupCse(k uint64, e ir.IExpr) (uint16, bool) {
	if i, ok := kc.cse[k]; ok && sameI(kc.vn[i].e, e) {
		return kc.vn[i].r, true
	}
	for i := len(kc.loops) - 1; i >= 0; i-- {
		if ent, ok := kc.loops[i].hoisted(k); ok && sameI(ent.e, e) {
			return ent.r, true
		}
	}
	return 0, false
}

// tryHoist moves a pure, trap-free expression that no written slot feeds
// into the innermost enclosing loop's preamble. Hoisted code runs even
// for zero-trip loops, which is unobservable: it is pure ALU into fresh
// registers and carries no charge.
func (kc *kcompiler) tryHoist(e ir.IExpr, k uint64) (uint16, bool) {
	if len(kc.loops) == 0 || ir.MayTrapIExpr(e) {
		return 0, false
	}
	ctx := kc.loops[len(kc.loops)-1]
	dep := false
	ir.IExprSlots(e, func(s int) { dep = dep || ctx.written.has(s) })
	if dep {
		return 0, false
	}
	if ent, ok := ctx.hoisted(k); ok && sameI(ent.e, e) {
		return ent.r, true
	}
	r := kc.compileHoisted(e, ctx)
	ctx.setHoist(k, cseEnt{e: e, r: r})
	return r, true
}

// compileHoisted emits a pure expression into ctx.hoist using only the
// constant pool and ctx's own table — never body-context bindings, which
// the preamble would execute before.
func (kc *kcompiler) compileHoisted(x ir.IExpr, ctx *kloop) uint16 {
	switch e := x.(type) {
	case ir.IConst:
		return kc.iconstReg(e.Val)
	case ir.ISlot:
		k := keyI(x)
		if ent, ok := ctx.hoisted(k); ok && sameI(ent.e, x) {
			return ent.r
		}
		r := kc.iReg()
		ctx.emit(kinstr{op: opISlot, dst: r, imm: int64(e.Slot)})
		ctx.setHoist(k, cseEnt{e: x, r: r})
		return r
	case ir.IBin:
		if v, ok := ir.ConstFold(x); ok {
			return kc.iconstReg(v)
		}
		k := keyI(x)
		if ent, ok := ctx.hoisted(k); ok && sameI(ent.e, x) {
			return ent.r
		}
		a := kc.compileHoisted(e.A, ctx)
		b := kc.compileHoisted(e.B, ctx)
		r := kc.iReg()
		ctx.emit(kinstr{op: ibinOps[e.Op], dst: r, a: a, b: b})
		ctx.setHoist(k, cseEnt{e: x, r: r})
		return r
	}
	return 0 // unreachable: callers check PureIExpr
}

// ibinOps maps a (validated) integer operator to its opcode.
var ibinOps = [...]kop{
	ir.IAdd: opIAdd, ir.ISub: opISub, ir.IMul: opIMul, ir.IDiv: opIDiv, ir.IMod: opIMod,
	ir.IShl: opIShl, ir.IShr: opIShr, ir.IMin: opIMin, ir.IMax: opIMax,
}

func (kc *kcompiler) compileIBin(e ir.IBin) uint16 {
	// Immediate forms. Folding a constant operand is exact: constants
	// have no evaluation effects, so operand order is preserved for the
	// remaining side.
	if e.Op == ir.IAdd || e.Op == ir.ISub || e.Op == ir.IMul {
		if vb, ok := ir.ConstFold(e.B); ok {
			a := kc.iexpr(e.A)
			r := kc.iReg()
			switch e.Op {
			case ir.IAdd:
				kc.emit(kinstr{op: opIAddImm, dst: r, a: a, imm: vb})
			case ir.ISub:
				kc.emit(kinstr{op: opIAddImm, dst: r, a: a, imm: -vb})
			case ir.IMul:
				kc.emit(kinstr{op: opIMulImm, dst: r, a: a, imm: vb})
			}
			return r
		}
		if va, ok := ir.ConstFold(e.A); ok && e.Op != ir.ISub {
			b := kc.iexpr(e.B)
			r := kc.iReg()
			if e.Op == ir.IAdd {
				kc.emit(kinstr{op: opIAddImm, dst: r, a: b, imm: va})
			} else {
				kc.emit(kinstr{op: opIMulImm, dst: r, a: b, imm: va})
			}
			return r
		}
	}
	a := kc.iexpr(e.A)
	b := kc.iexpr(e.B)
	r := kc.iReg()
	kc.emit(kinstr{op: ibinOps[e.Op], dst: r, a: a, b: b})
	return r
}

// ---- float expressions ---------------------------------------------------

func (kc *kcompiler) fexpr(x ir.FExpr) uint16 {
	if kc.err != nil {
		return 0
	}
	switch e := x.(type) {
	case ir.FConst:
		return kc.fconstReg(e.Val)
	case ir.FScalar:
		if r := kc.fbind[e.Slot]; r >= 0 {
			return uint16(r)
		}
		r := kc.fReg()
		kc.emit(kinstr{op: opFSlot, dst: r, imm: int64(e.Slot)})
		kc.setFBind(e.Slot, r)
		return r
	case ir.FLoad:
		r := kc.fReg()
		kc.access(opLoadF1, opLoadFA, opLoadFS, e.Arr, e.Idx, r)
		return r
	case ir.FBin:
		a := kc.fexpr(e.A)
		b := kc.fexpr(e.B)
		var op kop
		switch e.Op {
		case ir.FAdd:
			op = opFAdd
		case ir.FSub:
			op = opFSub
		case ir.FMul:
			op = opFMul
		case ir.FDiv:
			op = opFDiv
		case ir.FMinOp:
			op = opFMin
		case ir.FMaxOp:
			op = opFMax
		default:
			return 0
		}
		r := kc.fReg()
		kc.emit(kinstr{op: op, dst: r, a: a, b: b})
		return r
	case ir.FNeg:
		a := kc.fexpr(e.X)
		r := kc.fReg()
		kc.emit(kinstr{op: opFNeg, dst: r, a: a})
		return r
	case ir.FromInt:
		a := kc.iexpr(e.X)
		r := kc.fReg()
		kc.emit(kinstr{op: opFromI, dst: r, a: a})
		return r
	case ir.FCall:
		return kc.fcall(e)
	}
	return 0
}

func (kc *kcompiler) fcall(e ir.FCall) uint16 {
	args := make([]uint16, len(e.Args))
	for i, a := range e.Args {
		args[i] = kc.fexpr(a)
	}
	var op kop
	want := 1
	switch e.Fn {
	case ir.Sqrt:
		op = opSqrt
	case ir.Abs:
		op = opAbs
	case ir.Log:
		op = opLog
	case ir.Exp:
		op = opExp
	case ir.Sin:
		op = opSin
	case ir.Cos:
		op = opCos
	case ir.Pow:
		op, want = opPow, 2
	case ir.Randlc:
		op, want = opRandlc, 0
	default:
		return 0
	}
	in := kinstr{op: op, dst: kc.fReg()}
	if want >= 1 {
		in.a = args[0]
	}
	if want == 2 {
		in.b = args[1]
	}
	kc.emit(in)
	return in.dst
}

// ---- memory --------------------------------------------------------------

// linIndexChecked emits the oracle's per-dim evaluate/check/accumulate
// sequence into one linear-index register.
func (kc *kcompiler) linIndexChecked(arr *ir.Array, idx []ir.IExpr) uint16 {
	li := kc.iReg()
	for d, ix := range idx {
		r := kc.iexpr(ix)
		op := opIdxAcc
		if d == 0 {
			op = opIdx0
		}
		kc.emit(kinstr{op: op, dst: li, a: r, b: uint16(kc.auxFor(arr, d)),
			imm: arr.Strides[d], imm2: arr.Dims[d]})
	}
	return li
}

// access lowers one array access to or from register reg: op1 is the
// fused 1-D form, opN the N-D form over a checked linear index. Inside a
// span body (kspan.go) it is the cursor form opS instead: the subscripts
// are not evaluated — spanChunk maintains them — and nothing can fault.
//
// A recording compile brackets every access the recorder knows with
// opProfPre and opProfPost. The subscripts (nested instrumented loads and
// their own brackets included) are evaluated and the charges flushed
// before opProfPre, so the pair observes exactly the access; opProfPost
// reads the element index back from the access's own index register —
// the 1-D subscript or the N-D linear index, (addr−base)/ElemSize either
// way.
func (kc *kcompiler) access(op1, opN, opS kop, arr *ir.Array, idx []ir.IExpr, reg uint16) {
	if kc.spanNext >= 0 { // the next site in first-touch order, as spanSites numbered them
		kc.emit(kinstr{op: opS, dst: reg, imm: int64(kc.spanNext)})
		kc.spanNext++
		return
	}
	in := kinstr{op: opN, dst: reg, imm: arr.Base}
	if len(idx) == 1 && len(arr.Strides) == 1 {
		in.op, in.a = op1, kc.iexpr(idx[0])
		in.b, in.imm2 = uint16(kc.auxFor(arr, 0)), arr.Dims[0]
	} else {
		in.a = kc.linIndexChecked(arr, idx)
	}
	kc.flush()
	site, recorded := kc.prof.siteFor(idx)
	if recorded {
		kc.emit(kinstr{op: opProfPre})
	}
	kc.emit(in)
	if recorded {
		kc.emit(kinstr{op: opProfPost, a: in.a, imm: int64(site)})
	}
}

// ---- conditions ----------------------------------------------------------

// condJump emits a short-circuit jump chain: control transfers to target
// exactly when x evaluates to sense, with operand evaluation order and
// short-circuiting identical to the oracle's && / ||.
func (kc *kcompiler) condJump(x ir.BExpr, target int, sense bool) {
	if kc.err != nil {
		return
	}
	switch e := x.(type) {
	case ir.CmpI:
		a := kc.iexpr(e.A)
		b := kc.iexpr(e.B)
		kc.flush()
		kc.emit(kinstr{op: opJCmpI, dst: cmpSense(e.Op, sense), a: a, b: b, imm: int64(target)})
	case ir.CmpF:
		a := kc.fexpr(e.A)
		b := kc.fexpr(e.B)
		kc.flush()
		kc.emit(kinstr{op: opJCmpF, dst: cmpSense(e.Op, sense), a: a, b: b, imm: int64(target)})
	case ir.And:
		if sense {
			skip := kc.newLabel()
			kc.condJump(e.A, skip, false)
			kc.condJump(e.B, target, true)
			kc.mark(skip)
		} else {
			kc.condJump(e.A, target, false)
			kc.condJump(e.B, target, false)
		}
	case ir.Or:
		if sense {
			kc.condJump(e.A, target, true)
			kc.condJump(e.B, target, true)
		} else {
			skip := kc.newLabel()
			kc.condJump(e.A, skip, true)
			kc.condJump(e.B, target, false)
			kc.mark(skip)
		}
	case ir.Not:
		kc.condJump(e.X, target, !sense)
	}
}

// ---- hints ---------------------------------------------------------------

func (kc *kcompiler) hint(pfArr *ir.Array, pfIdx []ir.IExpr, pfPages ir.IExpr,
	relArr *ir.Array, relIdx []ir.IExpr, relPages ir.IExpr) {

	if n := len(kc.loops); n > 0 {
		kc.loops[n-1].hints++
	}
	// Fused template: constant-page indirect prefetch (a[col[k]] shape),
	// no release side — one instruction per hint.
	if relArr == nil && pfArr != nil && len(pfIdx) == 1 && len(pfArr.Strides) == 1 {
		if n, ok := ir.ConstFold(pfPages); ok && n >= 1 {
			if ld, isLd := pfIdx[0].(ir.ILoad); isLd && len(ld.Idx) == 1 &&
				len(ld.Arr.Strides) == 1 && ir.PureIExpr(ld.Idx[0]) {
				ix := kc.iexpr(ld.Idx[0])
				h := hintAux{
					cBase: ld.Arr.Base, cDim: ld.Arr.Dims[0], cRef: kc.auxFor(ld.Arr, 0),
					xBase: pfArr.Base, xDim: pfArr.Elems,
					lastPage: (pfArr.Base + pfArr.Elems*ir.ElemSize - 1) >> kc.shift,
					pages:    n,
				}
				kc.emit(kinstr{op: opHintLoad1, a: ix, b: kc.hauxAdd(h), imm: kc.takePending()})
				return
			}
		}
	}

	// General path: per side, linear index -> clamped page -> pages ->
	// clamped count, each evaluated once in the oracle's order, then the
	// oracle's dispatch. Hint code writes no scalar slots, so register facts
	// survive.
	var rpp, rpn uint16
	if pfArr != nil {
		rpp = kc.hintPage(pfArr, pfIdx)
		rpn = kc.hintCount(pfArr, pfPages, rpp)
	}
	var rrp, rrn uint16
	if relArr != nil {
		rrp = kc.hintPage(relArr, relIdx)
		rrn = kc.hintCount(relArr, relPages, rrp)
	}
	kc.flush()
	kc.emit(kinstr{op: opHint, a: rpp, b: rpn, dst: rrp, imm: int64(rrn)})
}

// hintPage emits the unchecked linear index (hint addresses are clamped,
// never bounds-checked) and the clamp-to-array page computation.
func (kc *kcompiler) hintPage(arr *ir.Array, idx []ir.IExpr) uint16 {
	var li uint16
	for d, ix := range idx {
		r := kc.iexpr(ix)
		if arr.Strides[d] != 1 {
			rm := kc.iReg()
			kc.emit(kinstr{op: opIMulImm, dst: rm, a: r, imm: arr.Strides[d]})
			r = rm
		}
		if d == 0 {
			li = r
		} else {
			rs := kc.iReg()
			kc.emit(kinstr{op: opIAdd, dst: rs, a: li, b: r})
			li = rs
		}
	}
	rp := kc.iReg()
	kc.emit(kinstr{op: opHintPage, dst: rp, a: li, imm: arr.Base, imm2: arr.Elems})
	return rp
}

func (kc *kcompiler) hintCount(arr *ir.Array, pages ir.IExpr, rp uint16) uint16 {
	rn0 := kc.iexpr(pages)
	rn := kc.iReg()
	lastPage := (arr.Base + arr.Elems*ir.ElemSize - 1) >> kc.shift
	kc.emit(kinstr{op: opHintN, dst: rn, a: rn0, b: rp, imm: lastPage})
	return rn
}
