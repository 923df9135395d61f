// The nest compiler: lowers a whole program body — outer loops included —
// to the flat kernel bytecode of kernel.go, page-run loops (kspan.go)
// among them, so a compiled program makes no closure call at all.
//
// Exactness discipline (see kernel.go's package comment): compile-time
// operation charges accumulate in kc.pending and are materialized as one
// opCharge before any instruction that can fault or cross into the
// kernel, and before control flow splits. Pure integer expressions may be
// CSE'd, folded, or hoisted out of a loop only when they are trap-free
// and depend on no slot the loop writes; values bound to registers are
// dropped at every join point whose dominating instructions might not
// have executed (loop exits, branch joins). The closure oracle
// (oracle.go) remains the reference semantics; both charge the operation
// counts of cost.go.
package exec

import (
	"fmt"
	"maps"
	"math"
	"os"
	"slices"

	"repro/internal/ir"
	"repro/internal/profile"
)

// kloop is the compile-time context of one bytecode loop being built.
type kloop struct {
	slot     int
	written  map[int]bool // int slots the body writes (incl. nested vars)
	fwritten map[int]bool // float slots the body writes
	hoist    []kinstr     // loop-invariant code, spliced before the guard
	hoistCse map[uint64]cseEnt
	hints    int // hint statements in the direct body lowered to bytecode
}

// cseEnt is one value-numbering fact: register r holds expression e. The
// expression is kept so a hash collision degrades to a CSE miss instead
// of a wrong reuse (lookups verify structural equality).
type cseEnt struct {
	e ir.IExpr
	r uint16
}

// kmaps is the value-numbering state.
type kmaps struct {
	cse    map[uint64]cseEnt // pure int expr -> register holding it
	cseDep map[uint64][]int  // its slot dependencies, for invalidation
	bind   map[int]uint16    // int slot -> register mirroring it
	fbind  map[int]uint16    // float slot -> register mirroring it
}

type kcompiler struct {
	shift  int64         // page shift, for compile-time page arithmetic
	params map[int]int64 // parameter slots no statement writes -> Param.Val
	err    error         // first statement cost.go rejected, or the *LimitError of the first full table
	prof   *profRec      // non-nil in a recording compile (profile.go)

	code    []kinstr
	buf     *[]kinstr // current emission target (a page-run loop's span half swaps in)
	prelude []kinstr  // constant-pool loads, prepended at assembly
	labels  int
	pending int64 // operation charges not yet materialized

	nRI, nRF int

	kmaps
	iconst map[int64]uint16
	fconst map[uint64]uint16

	aux    []auxDim
	auxIdx map[auxKey]int
	haux   []hintAux

	// page-run loops (kspan.go)
	spans      []spanLoop
	spanNext   int  // next site id while lowering a span body, else -1
	nSites     int  // access sites assigned so far
	nSubs      int  // maintained-subscript slots assigned so far
	inAbsorber bool // lowering the per-element body of a loop that absorbs inner loops

	loops   []*kloop
	reports []LoopReport
}

func newKcompiler(prog *ir.Program, shift int64, rec *profile.Recorder) *kcompiler {
	kc := &kcompiler{
		shift:  shift,
		params: map[int]int64{},
		nRI:    1, nRF: 1, // ri[0]/rf[0] are permanent zeros
		kmaps: kmaps{cse: map[uint64]cseEnt{}, cseDep: map[uint64][]int{},
			bind: map[int]uint16{}, fbind: map[int]uint16{}},
		iconst: map[int64]uint16{},
		fconst: map[uint64]uint16{},
		auxIdx: map[auxKey]int{},

		spanNext: -1,
	}
	kc.buf = &kc.code
	written := ir.WrittenSlots(prog.Body, nil)
	for _, p := range prog.Params {
		if !written[p.Slot] {
			kc.params[p.Slot] = p.Val
		}
	}
	if rec != nil {
		kc.prof = newProfRec(rec)
	}
	return kc
}

// compile lowers body. An error is a statement cost.go rejected or a
// *LimitError: the program exceeded one of the bytecode's tables.
func (kc *kcompiler) compile(body []ir.Stmt) error {
	kc.stmts(body)
	kc.flush()
	if kc.err != nil {
		return kc.err
	}
	code := make([]kinstr, 0, len(kc.prelude)+len(kc.code))
	code = append(code, kc.prelude...)
	code = append(code, kc.code...)
	// Two passes: the second fuses across products of the first
	// (opIdx3 feeding opHintLoad1 becomes a single opHintIdx3).
	code = kc.peephole(kc.peephole(code))
	kc.code = assemble(code, kc.labels)
	fuseDotLoop(kc.code)
	return nil
}

func (kc *kcompiler) install(m *Artifact) {
	m.code = kc.code
	m.aux = kc.aux
	m.haux = kc.haux
	m.spans = kc.spans
	m.nRI = kc.nRI
	m.nRF = kc.nRF
	m.nSites = kc.nSites
	m.nSubs = kc.nSubs
	m.pageShift = kc.shift
	m.reports = kc.reports
	if kc.prof != nil {
		m.rec = kc.prof.rec
	}
	if os.Getenv("OOC_KDUMP") != "" {
		h := map[kop]int{}
		for _, in := range m.code {
			h[in.op]++
		}
		fmt.Fprintf(os.Stderr, "kdump: len=%d histo=%v\n", len(m.code), h)
		for i, in := range m.code {
			fmt.Fprintf(os.Stderr, "  %3d op=%d dst=%d a=%d b=%d imm=%d imm2=%d\n",
				i, in.op, in.dst, in.a, in.b, in.imm, in.imm2)
		}
	}
}

// ---- emission helpers ----------------------------------------------------

func (kc *kcompiler) emit(in kinstr) { *kc.buf = append(*kc.buf, in) }

// full records that one of the bytecode's 16-bit-indexed tables has no
// entry left; lowering stops at the next statement.
func (kc *kcompiler) full(table string) {
	if kc.err == nil {
		kc.err = &LimitError{Limit: table}
	}
}

func (kc *kcompiler) iReg() uint16 {
	if kc.nRI > 0xFFFF {
		kc.full("int registers")
		return 0
	}
	r := uint16(kc.nRI)
	kc.nRI++
	return r
}

func (kc *kcompiler) fReg() uint16 {
	if kc.nRF > 0xFFFF {
		kc.full("float registers")
		return 0
	}
	r := uint16(kc.nRF)
	kc.nRF++
	return r
}

func (kc *kcompiler) charge(n int64) { kc.pending += n }

// flush materializes pending charges. Call before any instruction that
// can fault or cross into the kernel, and before control flow.
func (kc *kcompiler) flush() {
	if kc.pending != 0 {
		kc.emit(kinstr{op: opCharge, imm: kc.pending})
		kc.pending = 0
	}
}

// takePending hands the pending charge to a fused instruction that
// performs its own AddUserOps before anything can fault.
func (kc *kcompiler) takePending() int64 {
	p := kc.pending
	kc.pending = 0
	return p
}

func (kc *kcompiler) newLabel() int {
	kc.labels++
	return kc.labels - 1
}

func (kc *kcompiler) mark(l int) { kc.emit(kinstr{op: opLabel, imm: int64(l)}) }

// auxKey names one (array, dimension) bounds check.
type auxKey struct {
	name string
	d    int
}

func (kc *kcompiler) auxFor(arr *ir.Array, d int) int {
	key := auxKey{arr.Name, d}
	if i, ok := kc.auxIdx[key]; ok {
		return i
	}
	if len(kc.aux) > 0xFFFF {
		kc.full("aux table")
		return 0
	}
	kc.aux = append(kc.aux, auxDim{name: arr.Name, dim: arr.Dims[d], d: d})
	kc.auxIdx[key] = len(kc.aux) - 1
	return len(kc.aux) - 1
}

func (kc *kcompiler) hauxAdd(h hintAux) uint16 {
	if len(kc.haux) > 0xFFFF {
		kc.full("hint-aux table")
		return 0
	}
	kc.haux = append(kc.haux, h)
	return uint16(len(kc.haux) - 1)
}

func (kc *kcompiler) iconstReg(v int64) uint16 {
	if v == 0 {
		return 0 // ri[0] is the zero register
	}
	if r, ok := kc.iconst[v]; ok {
		return r
	}
	r := kc.iReg()
	kc.prelude = append(kc.prelude, kinstr{op: opIConst, dst: r, imm: v})
	kc.iconst[v] = r
	return r
}

func (kc *kcompiler) fconstReg(v float64) uint16 {
	b := math.Float64bits(v)
	if r, ok := kc.fconst[b]; ok {
		return r
	}
	r := kc.fReg()
	kc.prelude = append(kc.prelude, kinstr{op: opFConst, dst: r, imm: int64(b)})
	kc.fconst[b] = r
	return r
}

// ---- value numbering -----------------------------------------------------

// keyI builds a structural hash for a pure integer expression (FNV-style
// word mixing; no per-node garbage). Collisions are tolerated: every
// consumer re-checks sameI before trusting a table hit.
func keyI(x ir.IExpr) uint64 {
	const prime = 1099511628211
	switch e := x.(type) {
	case ir.IConst:
		return (0x9e3779b97f4a7c15 ^ uint64(e.Val)) * prime
	case ir.ISlot:
		return (0xc2b2ae3d27d4eb4f ^ uint64(e.Slot)) * prime
	case ir.IBin:
		h := (0x165667b19e3779f9 ^ uint64(e.Op)) * prime
		h = (h ^ keyI(e.A)) * prime
		h = (h ^ keyI(e.B)) * prime
		return h
	}
	return 0
}

// sameI reports structural equality of two expressions over the pure
// IConst/ISlot/IBin domain keyI covers; any other node compares unequal.
func sameI(a, b ir.IExpr) bool {
	switch x := a.(type) {
	case ir.IConst:
		y, ok := b.(ir.IConst)
		return ok && x.Val == y.Val
	case ir.ISlot:
		y, ok := b.(ir.ISlot)
		return ok && x.Slot == y.Slot
	case ir.IBin:
		y, ok := b.(ir.IBin)
		return ok && x.Op == y.Op && sameI(x.A, y.A) && sameI(x.B, y.B)
	}
	return false
}

func slotsOf(x ir.IExpr) []int {
	var deps []int
	seen := map[int]bool{}
	ir.IExprSlots(x, func(s int) {
		if !seen[s] {
			seen[s] = true
			deps = append(deps, s)
		}
	})
	return deps
}

// invalidateSlot drops every register fact that depended on int slot s.
func (kc *kcompiler) invalidateSlot(s int) {
	delete(kc.bind, s)
	for k, deps := range kc.cseDep {
		for _, d := range deps {
			if d == s {
				delete(kc.cse, k)
				delete(kc.cseDep, k)
				break
			}
		}
	}
}

func (m kmaps) clone() kmaps {
	return kmaps{cse: maps.Clone(m.cse), cseDep: maps.Clone(m.cseDep),
		bind: maps.Clone(m.bind), fbind: maps.Clone(m.fbind)}
}

func (kc *kcompiler) snapshot() kmaps { return kc.kmaps.clone() }

// restore installs m itself: a snapshot that seeds several paths is
// cloned for all but the last.
func (kc *kcompiler) restore(m kmaps) { kc.kmaps = m }

// writtenFSlots is WrittenSlots for float scalars.
func writtenFSlots(body []ir.Stmt, dst map[int]bool) map[int]bool {
	if dst == nil {
		dst = map[int]bool{}
	}
	for _, s := range body {
		switch x := s.(type) {
		case ir.SetScalarF:
			dst[x.Slot] = true
		case *ir.Loop:
			writtenFSlots(x.Body, dst)
		case ir.If:
			writtenFSlots(x.Then, dst)
			writtenFSlots(x.Else, dst)
		}
	}
	return dst
}

// ---- statements ----------------------------------------------------------

func (kc *kcompiler) stmts(list []ir.Stmt) {
	for _, s := range list {
		if kc.err != nil {
			return
		}
		kc.stmt(s)
	}
}

func (kc *kcompiler) stmt(s ir.Stmt) {
	if l, ok := s.(*ir.Loop); ok {
		if kc.spanNext >= 0 {
			kc.unroll(l)
		} else {
			kc.loop(l)
		}
		return
	}
	cost, err := stmtCost(s)
	if err != nil {
		kc.err = err
		return
	}
	kc.charge(cost)
	switch x := s.(type) {
	case ir.AssignF:
		rv := kc.fexpr(x.RHS) // RHS first, exactly like the oracle
		kc.access(opStoreF1, opStoreFA, opStoreFS, x.Arr, x.Idx, rv)
	case ir.AssignI:
		rv := kc.iexpr(x.RHS)
		kc.access(opStoreI1, opStoreIA, opStoreIS, x.Arr, x.Idx, rv)
	case ir.SetScalarF:
		kc.setScalarF(x)
	case ir.SetScalarI:
		r := kc.iexpr(x.RHS)
		kc.emit(kinstr{op: opSetSlot, a: r, imm: int64(x.Slot)})
		kc.invalidateSlot(x.Slot)
		kc.bind[x.Slot] = r
	case ir.If:
		kc.ifStmt(x)
	case ir.Prefetch:
		kc.hint(x.Arr, x.Idx, x.Pages, nil, nil, nil)
	case ir.Release:
		kc.hint(nil, nil, nil, x.Arr, x.Idx, x.Pages)
	case ir.PrefetchRelease:
		kc.hint(x.PfArr, x.PfIdx, x.PfPages, x.RelArr, x.RelIdx, x.RelPages)
	}
}

func (kc *kcompiler) ifStmt(x ir.If) {
	lEnd := kc.newLabel()
	if len(x.Else) == 0 {
		kc.condJump(x.Cond, lEnd, false)
		condSnap := kc.snapshot() // valid at both successors
		kc.stmts(x.Then)
		kc.flush()
		kc.mark(lEnd)
		kc.restore(condSnap)
	} else {
		lElse := kc.newLabel()
		kc.condJump(x.Cond, lElse, false)
		condSnap := kc.snapshot()
		kc.stmts(x.Then)
		kc.flush()
		kc.emit(kinstr{op: opJump, imm: int64(lEnd)})
		kc.mark(lElse)
		kc.restore(condSnap.clone())
		kc.stmts(x.Else)
		kc.flush()
		kc.mark(lEnd)
		kc.restore(condSnap)
	}
	// At the join only facts that survived BOTH paths hold: drop anything
	// either branch may have written.
	wr := ir.WrittenSlots(x.Then, nil)
	wr = ir.WrittenSlots(x.Else, wr)
	for s := range wr {
		kc.invalidateSlot(s)
	}
	fw := writtenFSlots(x.Then, nil)
	fw = writtenFSlots(x.Else, fw)
	for s := range fw {
		delete(kc.fbind, s)
	}
}

func (kc *kcompiler) setScalarF(x ir.SetScalarF) {
	slot := x.Slot
	if add, ok := x.RHS.(ir.FBin); ok && add.Op == ir.FAdd {
		if sc, ok := add.A.(ir.FScalar); ok && sc.Slot == slot {
			// s = s + ... : the scalar read moves from before the addend's
			// evaluation to after it, which is exact — float expressions
			// cannot write float slots.
			if mul, ok := add.B.(ir.FBin); ok && mul.Op == ir.FMul {
				if kc.tryFAccDot(slot, mul) {
					return
				}
				p := kc.fexpr(mul.A)
				q := kc.fexpr(mul.B)
				kc.emit(kinstr{op: opFAccM, a: p, b: q, imm: int64(slot)})
				delete(kc.fbind, slot)
				return
			}
			r := kc.fexpr(add.B)
			kc.emit(kinstr{op: opFAcc, a: r, imm: int64(slot)})
			delete(kc.fbind, slot)
			return
		}
	}
	r := kc.fexpr(x.RHS)
	kc.emit(kinstr{op: opSetF, a: r, imm: int64(slot)})
	kc.fbind[slot] = r
}

// tryFAccDot recognizes s = s + A[t] * X[C[t]] over 1-D arrays with a
// pure shared subscript — the sparse dot-product step — and emits the
// fused kernel. The subscript is evaluated once instead of twice, which
// is exact because it is pure. A recording compile declines: the three
// loads need their own observation brackets.
func (kc *kcompiler) tryFAccDot(slot int, mul ir.FBin) bool {
	if kc.prof != nil {
		return false
	}
	la, isA := mul.A.(ir.FLoad)
	lx, isX := mul.B.(ir.FLoad)
	if !isA || !isX || len(la.Idx) != 1 || len(lx.Idx) != 1 ||
		len(la.Arr.Strides) != 1 || len(lx.Arr.Strides) != 1 {
		return false
	}
	ld, isLd := lx.Idx[0].(ir.ILoad)
	if !isLd || len(ld.Idx) != 1 || len(ld.Arr.Strides) != 1 {
		return false
	}
	if !ir.PureIExpr(la.Idx[0]) || !sameI(la.Idx[0], ld.Idx[0]) {
		return false
	}
	t := kc.iexpr(la.Idx[0])
	h := hintAux{
		aBase: la.Arr.Base, aDim: la.Arr.Dims[0], aRef: kc.auxFor(la.Arr, 0),
		cBase: ld.Arr.Base, cDim: ld.Arr.Dims[0], cRef: kc.auxFor(ld.Arr, 0),
		xBase: lx.Arr.Base, xDim: lx.Arr.Dims[0], xRef: kc.auxFor(lx.Arr, 0),
	}
	kc.emit(kinstr{op: opFAccDot, dst: uint16(slot), a: t, b: kc.hauxAdd(h), imm: kc.takePending()})
	delete(kc.fbind, slot)
	return true
}

// ---- loops ---------------------------------------------------------------

func (kc *kcompiler) loop(l *ir.Loop) {
	head, iter, err := loopCost(l)
	if err != nil {
		kc.err = err
		return
	}
	depth := len(kc.loops)
	var w *spanWalk
	reason := ReasonAbsorbed
	if kc.inAbsorber {
		// Env's span state belongs to one page-run loop at a time, so the
		// per-element body of an absorbing loop may hold no page-run layout:
		// what it absorbed can never earn one.
		if _, trip, ok := ir.StaticTrip(l, kc.params); !ok || trip >= spanMinTrip {
			panic(fmt.Sprintf("exec: loop %s inside an absorbing loop's per-element body is not statically short", l.Var))
		}
	} else {
		w, reason = kc.spanSites(l)
	}
	pageRun := reason == ReasonSpecialized
	ri := len(kc.reports)
	kc.reports = append(kc.reports, LoopReport{
		Var: l.Var, Depth: depth, Driver: "kernel", Reason: reason})
	if pageRun {
		r := &kc.reports[ri]
		r.Driver, r.Sites, r.Unroll = "page-run", len(w.sites), int(w.unroll)
	}

	kc.charge(head)
	rh := kc.iexpr(l.Hi) // runtime order: hi before lo, like the oracle
	rlo := kc.iexpr(l.Lo)
	rv := kc.iReg()
	kc.emit(kinstr{op: opIMove, dst: rv, a: rlo})
	kc.flush()

	ctx := &kloop{
		slot:     l.Slot,
		written:  ir.WrittenSlots(l.Body, nil),
		fwritten: writtenFSlots(l.Body, nil),
		hoistCse: map[uint64]cseEnt{},
	}
	snap := kc.snapshot()
	kc.dropWritten(ctx)
	kc.bind[l.Slot] = rv
	kc.loops = append(kc.loops, ctx)
	var s0 kmaps
	if pageRun {
		s0 = kc.snapshot()
	}

	// The body is lowered in place. What runs before it — the invariant
	// code its lowering hoists, the trip guard, a page-run loop's span half
	// — is only complete afterwards and is spliced in front of it, so no
	// level of the nest copies its body into a parent's buffer.
	body, p0 := kc.buf, len(*kc.buf)
	kc.pending = iter
	outer := kc.inAbsorber
	kc.inAbsorber = outer || w != nil && len(w.abs) > 0
	kc.stmts(l.Body)
	kc.inAbsorber = outer
	kc.flush()
	lEnd, lTop := kc.newLabel(), kc.newLabel()

	// Layout: the preheader stores the first induction value; the back
	// edge stores every subsequent one, so the loop top costs zero extra
	// dispatches per iteration. A page-run loop continues with kspan.go's
	// two-body layout.
	var front []kinstr
	var backEdge kinstr
	kc.buf = &front
	if pageRun {
		kc.restore(s0)
		backEdge = kc.spanLoop(l, w, iter, rv, rh, rlo, lTop, lEnd)
	} else {
		kc.emit(kinstr{op: opSetSlot, a: rv, imm: int64(l.Slot)})
		backEdge = kinstr{op: opLoopEndS, dst: rv, a: uint16(l.Slot), b: rh, imm: l.Step, imm2: int64(lTop)}
	}
	kc.mark(lTop)
	kc.buf = body
	kc.loops = kc.loops[:depth]
	kc.reports[ri].Hints = ctx.hints

	pre := append(ctx.hoist, kinstr{op: opJumpGeI, a: rv, b: rh, imm: int64(lEnd)})
	*kc.buf = slices.Insert(*kc.buf, p0, append(pre, front...)...)
	kc.emit(backEdge)
	kc.mark(lEnd)

	kc.restore(snap)
	kc.dropWritten(ctx)
}

// dropWritten forgets every register fact about a slot ctx's loop
// writes, its induction variable included: such facts hold neither at the
// top of the body (after a back edge) nor after the loop.
func (kc *kcompiler) dropWritten(ctx *kloop) {
	for s := range ctx.written {
		kc.invalidateSlot(s)
	}
	kc.invalidateSlot(ctx.slot)
	for s := range ctx.fwritten {
		delete(kc.fbind, s)
	}
}
