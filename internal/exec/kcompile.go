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
// (oracle_test.go) remains the reference semantics; both charge the
// operation counts of cost.go.
package exec

import (
	"fmt"
	"math"
	"math/bits"
	"os"
	"slices"

	"repro/internal/ir"
	"repro/internal/profile"
)

// kloop is the compile-time context of one bytecode loop being built.
type kloop struct {
	written  slotSet           // int slots the loop writes: its own variable, nested ones, scalars
	fwritten slotSet           // float slots the body writes
	hoist    []kinstr          // loop-invariant code, spliced before the guard
	hoistCse map[uint64]cseEnt // made by the first setHoist: most loops hoist nothing
	hints    int               // hint statements in the direct body lowered to bytecode
}

// emit appends one instruction of loop-invariant code. Loops hoist 0 to 12
// instructions whatever their size, most of them none: room for 8 is made
// by the first.
func (ctx *kloop) emit(in kinstr) {
	if ctx.hoist == nil {
		ctx.hoist = make([]kinstr, 0, 8)
	}
	ctx.hoist = append(ctx.hoist, in)
}

func (ctx *kloop) setHoist(k uint64, ent cseEnt) {
	if ctx.hoistCse == nil {
		ctx.hoistCse = map[uint64]cseEnt{}
	}
	ctx.hoistCse[k] = ent
}

// slotSet is a set of slot numbers, one bit each, sized from the program's
// slot count.
type slotSet []uint64

func (s slotSet) has(i int) bool { return s[i>>6]>>(uint(i)&63)&1 != 0 }
func (s slotSet) add(i int)      { s[i>>6] |= 1 << (uint(i) & 63) }

// each calls f for every member, in increasing order.
func (s slotSet) each(f func(slot int)) {
	for w, word := range s {
		for ; word != 0; word &= word - 1 {
			f(w<<6 + bits.TrailingZeros64(word))
		}
	}
}

// writtenSlots returns the int and the float slots body assigns: scalar
// assignments, and the induction variables of nested loops.
func (kc *kcompiler) writtenSlots(bodies ...[]ir.Stmt) (iw, fw slotSet) {
	ni, nf := (kc.nInt+63)>>6, (kc.nFloat+63)>>6
	set := make(slotSet, ni+nf)
	iw, fw = set[:ni:ni], set[ni:]
	for _, body := range bodies {
		ir.WalkStmts(body, func(s ir.Stmt) {
			switch x := s.(type) {
			case *ir.Loop:
				iw.add(x.Slot)
			case ir.SetScalarI:
				iw.add(x.Slot)
			case ir.SetScalarF:
				fw.add(x.Slot)
			}
		})
	}
	return iw, fw
}

// cseEnt is one value-numbering fact: register r holds expression e. The
// expression is kept so a hash collision degrades to a CSE miss instead
// of a wrong reuse (lookups verify structural equality).
type cseEnt struct {
	e ir.IExpr
	r uint16
}

// kmaps is the value-numbering state: one set of maps for the whole
// compile. Every write goes through a setter below, which first appends
// what it overwrites to the undo trail, so a scope (a loop body, a branch)
// is a mark on the trail and leaving it an unwind — never a copy of the
// maps.
type kmaps struct {
	cse    map[uint64]cseEnt // pure int expr -> register holding it
	cseDep map[uint64][]int  // its slot dependencies, for invalidation
	bind   map[int]uint16    // int slot -> register mirroring it
	fbind  map[int]uint16    // float slot -> register mirroring it
	trail  []undo
	deps   []int // backing store of every cseDep entry
}

// undo is what one setter overwrote: the previous entry of key in map m,
// if it had one.
type undo struct {
	m    uint8 // undoCse (cse and cseDep together), undoBind or undoFBind
	had  bool
	r    uint16 // bind, fbind
	key  uint64
	ent  cseEnt // cse
	deps []int  // cseDep
}

const (
	undoCse uint8 = iota
	undoBind
	undoFBind
)

func (m *kmaps) setCse(k uint64, ent cseEnt, deps []int) {
	old, had := m.cse[k]
	m.trail = append(m.trail, undo{m: undoCse, had: had, key: k, ent: old, deps: m.cseDep[k]})
	m.cse[k], m.cseDep[k] = ent, deps
}

func (m *kmaps) delCse(k uint64) {
	m.trail = append(m.trail, undo{m: undoCse, had: true, key: k, ent: m.cse[k], deps: m.cseDep[k]})
	delete(m.cse, k)
	delete(m.cseDep, k)
}

func (m *kmaps) setBind(slot int, r uint16) {
	old, had := m.bind[slot]
	m.trail = append(m.trail, undo{m: undoBind, had: had, key: uint64(slot), r: old})
	m.bind[slot] = r
}

func (m *kmaps) delBind(slot int) {
	if old, had := m.bind[slot]; had {
		m.trail = append(m.trail, undo{m: undoBind, had: true, key: uint64(slot), r: old})
		delete(m.bind, slot)
	}
}

func (m *kmaps) setFBind(slot int, r uint16) {
	old, had := m.fbind[slot]
	m.trail = append(m.trail, undo{m: undoFBind, had: had, key: uint64(slot), r: old})
	m.fbind[slot] = r
}

func (m *kmaps) delFBind(slot int) {
	if old, had := m.fbind[slot]; had {
		m.trail = append(m.trail, undo{m: undoFBind, had: true, key: uint64(slot), r: old})
		delete(m.fbind, slot)
	}
}

// snapshot marks the current state; restore(mark) returns to it. A mark
// stays valid until a restore to an earlier one, so the two branches of
// an if restore the same mark twice.
func (m *kmaps) snapshot() int { return len(m.trail) }

func (m *kmaps) restore(mark int) {
	for i := len(m.trail) - 1; i >= mark; i-- {
		u := &m.trail[i]
		switch {
		case u.m == undoCse && u.had:
			m.cse[u.key], m.cseDep[u.key] = u.ent, u.deps
		case u.m == undoCse:
			delete(m.cse, u.key)
			delete(m.cseDep, u.key)
		case u.m == undoBind && u.had:
			m.bind[int(u.key)] = u.r
		case u.m == undoBind:
			delete(m.bind, int(u.key))
		case u.had:
			m.fbind[int(u.key)] = u.r
		default:
			delete(m.fbind, int(u.key))
		}
	}
	m.trail = m.trail[:mark]
}

type kcompiler struct {
	shift  int64 // page shift, for compile-time page arithmetic
	nInt   int   // the program's slot counts, which size a slotSet
	nFloat int
	params map[int]int64 // parameter slots no statement writes -> Param.Val
	err    error         // first statement cost.go rejected, or the *LimitError of the first full table
	prof   *profRec      // non-nil in a recording compile (profile.go)

	code    []kinstr
	front   []kinstr  // what a loop runs before its body, built after it; one loop's at a time
	buf     *[]kinstr // current emission target: code, or front while a loop's front is built
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
	sites      []spanSite // spare capacity the next loop's spanWalk appends to, and cds and seed likewise
	cds        []int64
	seed       []uint16
	form       ir.Affine // the spanWalk's subscript decomposition, reused site to site
	spanNext   int       // next site id while lowering a span body, else -1
	nSites     int       // access sites assigned so far
	nSubs      int       // maintained-subscript slots assigned so far
	inAbsorber bool      // lowering the per-element body of a loop that absorbs inner loops

	// lane-wise span bodies (kspan.go): what their tables are cut from, and
	// the most lane slots of each kind one loop uses
	lanes          []laneLoop
	lslots         []laneSlots
	lregs          []laneReg
	laneNI, laneNF int

	loops   []*kloop
	reports []LoopReport
}

func newKcompiler(prog *ir.Program, shift int64, rec *profile.Recorder) *kcompiler {
	kc := &kcompiler{
		shift:  shift,
		nInt:   prog.NInt,
		nFloat: prog.NFloat,
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
	written, _ := kc.writtenSlots(prog.Body)
	for _, p := range prog.Params {
		if !written.has(p.Slot) {
			kc.params[p.Slot] = p.Val
		}
	}
	if rec != nil {
		kc.prof = newProfRec(rec)
	}
	return kc
}

// codePerStmt sizes the instruction buffer from the statement count, so
// that it is allocated once instead of by doubling: the NAS proxies, the
// example kernels and the benchmark corpus lower to 6 to 17 instructions a
// statement, labels and constant prelude included (unrolled span bodies
// are the high end).
const codePerStmt = 16

// compile lowers body. An error is a statement cost.go rejected or a
// *LimitError: the program exceeded one of the bytecode's tables.
func (kc *kcompiler) compile(body []ir.Stmt) error {
	kc.code = make([]kinstr, 0, codePerStmt*ir.CountStmts(body))
	kc.stmts(body)
	kc.flush()
	if kc.err != nil {
		return kc.err
	}
	code := slices.Insert(kc.code, 0, kc.prelude...)
	// Two passes: the second fuses across products of the first
	// (opFMSub feeding opSetF becomes a single opFMSubS).
	census := make([]int32, 2*(kc.nRI+kc.nRF))
	code = kc.peephole(kc.peephole(code, census), census)
	kc.code = assemble(code, kc.labels)
	kc.laneLoops(census)
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
	m.lanes, m.laneNI, m.laneNF = kc.lanes, kc.laneNI, kc.laneNF
	m.pageShift = kc.shift
	m.reports = kc.reports
	if kc.prof != nil {
		m.rec = kc.prof.rec
	}
	if os.Getenv("OOC_KDUMP") != "" {
		h := map[string]int{}
		for _, in := range m.code {
			h[kops[in.op].name]++
		}
		fmt.Fprintf(os.Stderr, "kdump: len=%d histo=%v\n", len(m.code), h)
		for i, in := range m.code {
			fmt.Fprintf(os.Stderr, "  %3d %-9s dst=%d a=%d b=%d imm=%d imm2=%d\n",
				i, kops[in.op].name, in.dst, in.a, in.b, in.imm, in.imm2)
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

// slotsOf returns the distinct slots x reads, as a slice of the compile's
// one dependency arena: an append that moves the arena leaves the slices
// cut earlier on the old array, which nothing writes again.
func (kc *kcompiler) slotsOf(x ir.IExpr) []int {
	n := len(kc.deps)
	ir.IExprSlots(x, func(s int) {
		if !slices.Contains(kc.deps[n:], s) {
			kc.deps = append(kc.deps, s)
		}
	})
	return kc.deps[n:len(kc.deps):len(kc.deps)]
}

// invalidateSlot drops every register fact that depended on int slot s.
func (kc *kcompiler) invalidateSlot(s int) {
	kc.delBind(s)
	for k, deps := range kc.cseDep {
		if slices.Contains(deps, s) {
			kc.delCse(k)
		}
	}
}

// invalidate drops every register fact that depended on an int slot in
// iw or was about a float slot in fw.
func (kc *kcompiler) invalidate(iw, fw slotSet) {
	iw.each(kc.delBind)
	for k, deps := range kc.cseDep {
		if slices.ContainsFunc(deps, iw.has) {
			kc.delCse(k)
		}
	}
	fw.each(kc.delFBind)
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
		kc.setBind(x.Slot, r)
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
		kc.restore(condSnap)
		kc.stmts(x.Else)
		kc.flush()
		kc.mark(lEnd)
		kc.restore(condSnap)
	}
	// At the join only facts that survived BOTH paths hold: drop anything
	// either branch may have written.
	kc.invalidate(kc.writtenSlots(x.Then, x.Else))
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
				kc.delFBind(slot)
				return
			}
			r := kc.fexpr(add.B)
			kc.emit(kinstr{op: opFAcc, a: r, imm: int64(slot)})
			kc.delFBind(slot)
			return
		}
	}
	r := kc.fexpr(x.RHS)
	kc.emit(kinstr{op: opSetF, a: r, imm: int64(slot)})
	kc.setFBind(slot, r)
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
	kc.delFBind(slot)
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
	ctx := &kloop{}
	ctx.written, ctx.fwritten = kc.writtenSlots(l.Body)
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
		w, reason = kc.spanSites(l, ctx.written)
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

	ctx.written.add(l.Slot)
	snap := kc.snapshot()
	kc.invalidate(ctx.written, ctx.fwritten)
	kc.setBind(l.Slot, rv)
	kc.loops = append(kc.loops, ctx)
	s0 := kc.snapshot()

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
	var backEdge kinstr
	kc.front = kc.front[:0]
	kc.buf = &kc.front
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

	code, nh := *body, len(ctx.hoist)
	n := nh + 1 + len(kc.front)
	code = slices.Grow(code, n)[:len(code)+n]
	copy(code[p0+n:], code[p0:])
	copy(code[p0:], ctx.hoist)
	code[p0+nh] = kinstr{op: opJumpGeI, a: rv, b: rh, imm: int64(lEnd)}
	copy(code[p0+nh+1:], kc.front)
	*body = code
	kc.emit(backEdge)
	kc.mark(lEnd)

	kc.restore(snap)
	kc.invalidate(ctx.written, ctx.fwritten)
}
