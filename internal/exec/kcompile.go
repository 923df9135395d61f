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
	"repro/internal/stash"
)

// kloop is the compile-time context of one bytecode loop being built. The
// compile keeps one per nesting depth and resets it on entry to each loop
// at that depth.
type kloop struct {
	written  slotSet    // int slots the loop writes: its own variable, nested ones, scalars
	fwritten slotSet    // float slots the body writes
	hoist    []kinstr   // loop-invariant code, spliced before the guard
	hoistCse []hoistEnt // what the hoisted code holds, one entry a key
	hints    int        // hint statements in the direct body lowered to bytecode
}

// hoistEnt is one fact of a hoist table: cseEnt under its keyI key.
type hoistEnt struct {
	k uint64
	cseEnt
}

// emit appends one instruction of loop-invariant code.
func (ctx *kloop) emit(in kinstr) { ctx.hoist = append(ctx.hoist, in) }

// hoisted returns the hoist-table fact under k: the latest, which a hash
// collision may have entered over an earlier one.
func (ctx *kloop) hoisted(k uint64) (cseEnt, bool) {
	for i := len(ctx.hoistCse) - 1; i >= 0; i-- {
		if h := ctx.hoistCse[i]; h.k == k {
			return h.cseEnt, true
		}
	}
	return cseEnt{}, false
}

func (ctx *kloop) setHoist(k uint64, ent cseEnt) {
	ctx.hoistCse = append(ctx.hoistCse, hoistEnt{k, ent})
}

// reset empties ctx for the next loop, keeping its storage.
func (ctx *kloop) reset() {
	ctx.hoist, ctx.hoistCse, ctx.hints = ctx.hoist[:0], ctx.hoistCse[:0], 0
}

// slotSet is a set of slot numbers, one bit each, sized from the program's
// slot count.
type slotSet []uint64

func (s slotSet) has(i int) bool { return s[i>>6]>>(uint(i)&63)&1 != 0 }
func (s slotSet) add(i int)      { s[i>>6] |= 1 << (uint(i) & 63) }

// or adds every member of t, a set of the same size.
func (s slotSet) or(t slotSet) {
	for i, w := range t {
		s[i] |= w
	}
}

// each calls f for every member, in increasing order.
func (s slotSet) each(f func(slot int)) {
	for w, word := range s {
		for ; word != 0; word &= word - 1 {
			f(w<<6 + bits.TrailingZeros64(word))
		}
	}
}

// Written sets. A write set is the int slots a piece of code assigns —
// scalar assignments and the induction variables of the loops in it — in
// its first iw words, then the float slots it assigns.

// writes returns the write set of l's body, which the walk of the program
// body recorded in the order the loops are lowered: l is the next one, or
// one lowered before (a join re-reads the loops of its branches).
func (kc *kcompiler) writes(l *ir.Loop) slotSet {
	if i := kc.nextLoop; i < len(kc.written) && kc.written[i].l == l {
		kc.nextLoop++
		return kc.written[i].set
	}
	for i := min(kc.nextLoop, len(kc.written)) - 1; i >= 0; i-- {
		if kc.written[i].l == l {
			return kc.written[i].set
		}
	}
	panic(fmt.Sprintf("exec: loop %s is not in the program body", l.Var))
}

// collect adds what body writes to set. With an arena, it cuts each loop's
// write set from it and records it in kc.written; without one, it reads
// the recorded sets. It returns what is left of the arena.
func (kc *kcompiler) collect(body []ir.Stmt, set, arena slotSet) slotSet {
	for _, s := range body {
		switch x := s.(type) {
		case *ir.Loop:
			var own slotSet
			if arena != nil {
				own, arena = arena[:len(set):len(set)], arena[len(set):]
				kc.written = append(kc.written, loopSet{x, own})
				arena = kc.collect(x.Body, own, arena)
			} else {
				own = kc.writes(x)
			}
			set.or(own)
			set.add(x.Slot)
		case ir.SetScalarI:
			set.add(x.Slot)
		case ir.SetScalarF:
			set.add(kc.iw<<6 + x.Slot)
		case ir.If:
			arena = kc.collect(x.Then, set, arena)
			arena = kc.collect(x.Else, set, arena)
		}
	}
	return arena
}

// split returns a write set's int and float halves.
func (kc *kcompiler) split(set slotSet) (iw, fw slotSet) {
	return set[:kc.iw:kc.iw], set[kc.iw:]
}

// ---- sizing ----------------------------------------------------------------

// sizes is what the sizing walk counts in a program body before it is
// lowered, the cost walk (cost.go) its expressions: the size of each table
// that is cut to fit the program.
type sizes struct {
	loops, depth int
	ops          int    // pure integer operations: the keys value numbering can enter
	refs, dims   int    // array references and their subscripts, once for each copy a span body may make
	consts       [2]int // int and float constants the pool can take
	lits         [2][32]uint64
	nlits        [2]int
}

// walk counts body, each of whose array references a span body may copy w
// times, at loop depth depth.
func (z *sizes) walk(body []ir.Stmt, depth, w int) {
	for _, s := range body {
		cw := costWalk{z: z, w: w}
		if x, ok := s.(*ir.Loop); ok {
			z.loops++
			z.depth = max(z.depth, depth+1)
			cw.iexpr(x.Lo)
			cw.iexpr(x.Hi)
			wb := w
			if _, trip, ok := ir.StaticTrip(x, nil); ok && trip < spanMinTrip { // absorbable: trip copies
				z.consts[0] += int(trip)
				wb = min(w*int(trip), spanMaxUnroll)
			}
			z.walk(x.Body, depth+1, max(wb, 1))
		} else {
			cw.stmt(s)
		}
		if x, ok := s.(ir.If); ok {
			z.walk(x.Then, depth, w)
			z.walk(x.Else, depth, w)
		}
	}
}

// iexpr counts one integer node: a literal, a pure operation, a folded
// constant.
func (z *sizes) iexpr(x ir.IExpr) {
	switch e := x.(type) {
	case ir.IConst:
		z.literal(0, uint64(e.Val))
	case ir.IBin:
		if ir.PureIExpr(x) {
			z.ops++
		}
		if _, ok := ir.ConstFold(x); ok {
			z.consts[0]++
		}
	}
}

// literal counts v once among the literals of kind k (0 int, 1 float);
// past the first 32 distinct ones, every literal counts.
func (z *sizes) literal(k int, v uint64) {
	if slices.Contains(z.lits[k][:z.nlits[k]], v) {
		return
	}
	if z.nlits[k] < len(z.lits[k]) {
		z.lits[k][z.nlits[k]] = v
		z.nlits[k]++
	}
	z.consts[k]++
}

// table is an open-addressed map from a 64-bit key to an index, sized from
// the sizing walk and at most three quarters full. It never deletes; a
// count the walk did not bound doubles it.
type table struct {
	e []tent
	n int
}

type tent struct {
	k uint64
	v int32 // the index + 1: 0 marks an empty slot
}

// tableSize returns the slots of a table for that many keys.
func tableSize(keys int) int {
	n := 8
	for 3*n < 4*keys {
		n <<= 1
	}
	return n
}

// at returns k's slot: where k is, or the empty slot it goes in.
func (t *table) at(k uint64) *tent {
	mask := uint64(len(t.e) - 1)
	for i := k * 0x9e3779b97f4a7c15 >> 32 & mask; ; i = (i + 1) & mask {
		if e := &t.e[i]; e.v == 0 || e.k == k {
			return e
		}
	}
}

// put enters a new key k with index i.
func (t *table) put(k uint64, i int) {
	if t.n++; 4*t.n > 3*len(t.e) {
		old := t.e
		t.e = make([]tent, 2*len(old))
		for _, e := range old {
			if e.v != 0 {
				*t.at(e.k) = e
			}
		}
	}
	*t.at(k) = tent{k, int32(i) + 1}
}

// cseEnt is one value-numbering fact: register r holds expression e. The
// expression is kept so a hash collision degrades to a CSE miss instead
// of a wrong reuse (lookups verify structural equality).
type cseEnt struct {
	e ir.IExpr
	r uint16
}

// kmaps is the value-numbering state: one table for the whole compile.
// Every write goes through a setter below, which first appends what it
// overwrites to the undo trail, so a scope (a loop body, a branch) is a
// mark on the trail and leaving it an unwind — never a copy of the table.
// The cse table only ever gains keys: a dropped fact stays in vn as the
// zero value, which no lookup matches.
type kmaps struct {
	cse   table     // pure int expr key -> its fact in vn
	vn    []cseFact // the facts, in the order their keys were first numbered
	bind  []int32   // int slot -> register mirroring it, or -1
	fbind []int32   // float slot -> register mirroring it, or -1
	trail []undo
}

// cseFact is a numbered expression with the slots it reads, modulo 64 one
// bit each: a fact whose mask misses a written slot cannot depend on it.
type cseFact struct {
	cseEnt
	mask uint64
}

// undo is what one setter overwrote: fact vn[key], or the binding of slot
// key.
type undo struct {
	m   uint8 // undoCse, undoBind or undoFBind
	r   int32 // bind, fbind
	key int
	old cseFact // cse
}

const (
	undoCse uint8 = iota
	undoBind
	undoFBind
)

func (m *kmaps) setCse(k uint64, ent cseEnt) {
	i := int(m.cse.at(k).v) - 1
	if i < 0 {
		i = len(m.vn)
		m.vn = append(m.vn, cseFact{})
		m.cse.put(k, i)
	}
	m.trail = append(m.trail, undo{m: undoCse, key: i, old: m.vn[i]})
	f := cseFact{cseEnt: ent}
	ir.IExprSlots(ent.e, func(s int) { f.mask |= 1 << (uint(s) & 63) })
	m.vn[i] = f
}

func (m *kmaps) delCse(i int) {
	m.trail = append(m.trail, undo{m: undoCse, key: i, old: m.vn[i]})
	m.vn[i] = cseFact{}
}

func (m *kmaps) setBind(slot int, r uint16) {
	m.trail = append(m.trail, undo{m: undoBind, key: slot, r: m.bind[slot]})
	m.bind[slot] = int32(r)
}

func (m *kmaps) delBind(slot int) {
	if old := m.bind[slot]; old >= 0 {
		m.trail = append(m.trail, undo{m: undoBind, key: slot, r: old})
		m.bind[slot] = -1
	}
}

func (m *kmaps) setFBind(slot int, r uint16) {
	m.trail = append(m.trail, undo{m: undoFBind, key: slot, r: m.fbind[slot]})
	m.fbind[slot] = int32(r)
}

func (m *kmaps) delFBind(slot int) {
	if old := m.fbind[slot]; old >= 0 {
		m.trail = append(m.trail, undo{m: undoFBind, key: slot, r: old})
		m.fbind[slot] = -1
	}
}

// snapshot marks the current state; restore(mark) returns to it. A mark
// stays valid until a restore to an earlier one, so the two branches of
// an if restore the same mark twice.
func (m *kmaps) snapshot() int { return len(m.trail) }

func (m *kmaps) restore(mark int) {
	for i := len(m.trail) - 1; i >= mark; i-- {
		u := &m.trail[i]
		switch u.m {
		case undoCse:
			m.vn[u.key] = u.old
		case undoBind:
			m.bind[u.key] = u.r
		default:
			m.fbind[u.key] = u.r
		}
	}
	m.trail = m.trail[:mark]
}

type loopSet struct {
	l   *ir.Loop
	set slotSet
}

type kcompiler struct {
	shift    int64       // page shift, for compile-time page arithmetic
	prog     *ir.Program // param binds its parameters no statement writes
	iw       int         // words of a write set's int half
	written  []loopSet   // each loop body's write set, in the order of the walk
	nextLoop int         // the entry of the next loop lowered
	joins    slotSet     // scratch: an if's write set at its join, or the slot invalidateSlot drops
	pwritten slotSet     // the int slots the program body writes
	err      error       // first statement cost.go rejected, or the *LimitError of the first full table
	prof     *profRec    // non-nil in a recording compile (profile.go)

	code    []kinstr
	prelude []kinstr // constant-pool loads, prepended at assembly
	labels  int
	pending int64 // operation charges not yet materialized

	nRI, nRF int

	kmaps
	iconst, fconst table // the constant pool's index: bits -> register

	aux    []auxDim
	auxIdx table // hash of (array name, dimension) -> the first aux entry under it
	haux   []hintAux

	// page-run loops (kspan.go)
	spans      []spanLoop
	walk       spanWalk   // the page-run walk of the loop being lowered
	sites      []spanSite // spare capacity the next walk appends to, and cds, seed and abs likewise
	cds        []int64
	seed       []uint16
	abs        []absVar
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

	loops   []kloop // the open loops' contexts, outermost first: a prefix of ctxs
	ctxs    []kloop // a context per depth, reused loop to loop
	reports []LoopReport

	// the blocks the compile's tables are cut from
	tents  []tent  // cse, iconst, fconst, auxIdx
	binds  []int32 // bind, fbind
	sets   slotSet // joins, the body's, each loop's and each depth's write set
	census []int32 // the peephole census, then laneLoops' scratch
	pos    []int   // assemble's label positions
}

// kstash keeps the working memory of one compile for the next: the
// kcompiler with its code buffer, constant prelude, value-numbering facts
// and trail, loop contexts and the blocks above — everything a compile
// fills that install does not hand to the Artifact.
var kstash = stash.New(func(kc *kcompiler) int { return cap(kc.code) })

// release empties kc of this compile's program and results, keeping its
// working memory, and puts it back in the stash.
func (kc *kcompiler) release() {
	*kc = kcompiler{code: kc.code[:0], prelude: kc.prelude[:0], written: kc.written[:0], ctxs: kc.ctxs,
		kmaps: kmaps{vn: kc.vn[:0], trail: kc.trail[:0]}, walk: spanWalk{seeds: kc.walk.seeds, reads: kc.walk.reads},
		form: kc.form, tents: kc.tents, binds: kc.binds, sets: kc.sets, census: kc.census, pos: kc.pos}
	kstash.Put(kc)
}

// newKcompiler takes the stashed working memory, cuts every table of the
// compile from it at the size one walk of the program body counts, and
// computes the loops' write sets. Release it when the compile is done.
func newKcompiler(prog *ir.Program, shift int64, rec *profile.Recorder) *kcompiler {
	var z sizes
	z.walk(prog.Body, 0, 1)
	kc := kstash.Take()
	kc.shift, kc.prog, kc.nRI, kc.nRF, kc.spanNext = shift, prog, 1, 1, -1 // ri[0]/rf[0] are permanent zeros
	kc.reports = make([]LoopReport, 0, z.loops)
	kc.spans = make([]spanLoop, 0, z.loops)
	kc.sites, kc.cds, kc.seed = make([]spanSite, 0, z.refs), make([]int64, 0, z.dims), make([]uint16, 0, z.dims)
	kc.abs = make([]absVar, 0, z.loops)
	dims := 0
	for _, a := range prog.Arrays {
		dims += len(a.Dims)
	}
	kc.aux = make([]auxDim, 0, dims)
	tabs := [...]*table{&kc.cse, &kc.iconst, &kc.fconst, &kc.auxIdx}
	ns := [...]int{tableSize(z.ops), tableSize(z.consts[0]), tableSize(z.consts[1]), tableSize(dims)}
	kc.tents = stash.Grow(kc.tents, ns[0]+ns[1]+ns[2]+ns[3])
	for i, block := 0, kc.tents; i < len(tabs); i++ {
		tabs[i].e, block = block[:ns[i]:ns[i]], block[ns[i]:]
	}
	kc.binds = stash.Grow(kc.binds, prog.NInt+prog.NFloat)
	for i := range kc.binds {
		kc.binds[i] = -1
	}
	kc.bind, kc.fbind = kc.binds[:prog.NInt:prog.NInt], kc.binds[prog.NInt:]

	// The join set, the body's, each loop's and each depth's write set.
	kc.iw = (prog.NInt + 63) >> 6
	w := kc.iw + (prog.NFloat+63)>>6
	kc.sets = stash.Grow(kc.sets, (2+z.loops+z.depth)*w)
	sets := kc.sets
	kc.joins = sets[:w:w]
	kc.collect(prog.Body, sets[w:2*w], sets[2*w:(2+z.loops)*w])
	kc.pwritten, _ = kc.split(sets[w : 2*w])
	if n := z.depth - len(kc.ctxs); n > 0 {
		kc.ctxs = append(kc.ctxs, make([]kloop, n)...)
	}
	for i, sets := 0, sets[(2+z.loops)*w:]; i < z.depth; i++ {
		kc.ctxs[i].written, kc.ctxs[i].fwritten = kc.split(sets[i*w : (i+1)*w : (i+1)*w])
	}
	if rec != nil {
		kc.prof = newProfRec(rec)
	}
	return kc
}

// param binds each parameter slot no statement writes to its value.
func (kc *kcompiler) param(slot int) (int64, bool) {
	v, ok := kc.prog.Binding(slot)
	return v, ok && !kc.pwritten.has(slot)
}

// compile lowers body. An error is a statement cost.go rejected or a
// *LimitError: the program exceeded one of the bytecode's tables.
func (kc *kcompiler) compile(body []ir.Stmt) error {
	kc.stmts(body)
	kc.flush()
	if kc.err != nil {
		return kc.err
	}
	code := slices.Insert(kc.code, 0, kc.prelude...)
	// Two passes: the second fuses across products of the first
	// (opFMSub feeding opSetF becomes a single opFMSubS).
	kc.census = stash.Grow(kc.census, 2*(kc.nRI+kc.nRF))
	code = kc.peephole(kc.peephole(code, kc.census), kc.census)
	kc.pos = stash.Grow(kc.pos, kc.labels)
	kc.code = assemble(code, kc.pos)
	kc.laneLoops(kc.census)
	return nil
}

// install hands the compile's results to m, the code buffer as an exact
// copy: the buffer itself stays with the compiler.
func (kc *kcompiler) install(m *Artifact) {
	m.code = slices.Clone(kc.code)
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

func (kc *kcompiler) emit(in kinstr) { kc.code = append(kc.code, in) }

// full records that one of the bytecode's 16-bit-indexed tables has no
// entry left; lowering stops at the next statement.
func (kc *kcompiler) full(table string) {
	if kc.err == nil {
		kc.err = &LimitError{Limit: table}
	}
}

func (kc *kcompiler) iReg() uint16 { return kc.reg(&kc.nRI, "int registers") }
func (kc *kcompiler) fReg() uint16 { return kc.reg(&kc.nRF, "float registers") }

// reg takes the next register of a file that has *n in use.
func (kc *kcompiler) reg(n *int, file string) uint16 {
	if *n > 0xFFFF {
		kc.full(file)
		return 0
	}
	*n++
	return uint16(*n - 1)
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

func (kc *kcompiler) auxFor(arr *ir.Array, d int) int {
	k := uint64(d)
	for i := 0; i < len(arr.Name); i++ {
		k = (k ^ uint64(arr.Name[i])) * 1099511628211
	}
	e := kc.auxIdx.at(k)
	for i := int(e.v) - 1; i >= 0 && i < len(kc.aux); i++ { // past the first: a hash collision
		if a := kc.aux[i]; a.d == d && a.name == arr.Name {
			return i
		}
	}
	if len(kc.aux) > 0xFFFF {
		kc.full("aux table")
		return 0
	}
	kc.aux = append(kc.aux, auxDim{name: arr.Name, dim: arr.Dims[d], d: d})
	if e.v == 0 {
		kc.auxIdx.put(k, len(kc.aux)-1)
	}
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
	return kc.constReg(&kc.iconst, opIConst, v, kc.iReg)
}

func (kc *kcompiler) fconstReg(v float64) uint16 {
	return kc.constReg(&kc.fconst, opFConst, int64(math.Float64bits(v)), kc.fReg)
}

// constReg returns the register the pool loads bits into with op, which
// reg allocates on the first request; t is the pool's index for op.
func (kc *kcompiler) constReg(t *table, op kop, bits int64, reg func() uint16) uint16 {
	if e := t.at(uint64(bits)); e.v != 0 {
		return uint16(e.v - 1)
	}
	r := reg()
	kc.prelude = append(kc.prelude, kinstr{op: op, dst: r, imm: bits})
	t.put(uint64(bits), int(r))
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

// invalidateSlot drops every register fact that depended on int slot s.
func (kc *kcompiler) invalidateSlot(s int) {
	clear(kc.joins) // free outside an if's join
	kc.joins.add(s)
	kc.invalidate(kc.split(kc.joins))
}

// invalidate drops every register fact that depended on an int slot in
// iw or was about a float slot in fw.
func (kc *kcompiler) invalidate(iw, fw slotSet) {
	iw.each(kc.delBind)
	var fold uint64 // iw's members modulo 64
	for _, w := range iw {
		fold |= w
	}
	for i, f := range kc.vn {
		if f.mask&fold != 0 && reads(f.e, iw.has) {
			kc.delCse(i)
		}
	}
	fw.each(kc.delFBind)
}

// reads reports whether x reads a slot in.
func reads(x ir.IExpr, in func(slot int) bool) (r bool) {
	ir.IExprSlots(x, func(s int) { r = r || in(s) })
	return r
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
	clear(kc.joins)
	kc.collect(x.Then, kc.joins, nil)
	kc.collect(x.Else, kc.joins, nil)
	kc.invalidate(kc.split(kc.joins))
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
	ctx := &kc.ctxs[depth]
	ctx.reset()
	iw, fw := kc.split(kc.writes(l))
	copy(ctx.written, iw)
	copy(ctx.fwritten, fw)
	var w *spanWalk
	reason := ReasonAbsorbed
	if kc.inAbsorber {
		// Env's span state belongs to one page-run loop at a time, so the
		// per-element body of an absorbing loop may hold no page-run layout:
		// what it absorbed can never earn one.
		if _, trip, ok := ir.StaticTrip(l, kc.param); !ok || trip >= spanMinTrip {
			panic(fmt.Sprintf("exec: loop %s inside an absorbing loop's per-element body is not statically short", l.Var))
		}
	} else {
		w, reason = kc.spanSites(l, ctx)
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
	kc.loops = kc.ctxs[:depth+1]
	s0 := kc.snapshot()

	// The body is lowered in place. What runs before it — the invariant
	// code its lowering hoists, the trip guard, a page-run loop's span half
	// — is only complete afterwards: it is lowered after the body, and the
	// two swap places by reversals, so no level of the nest copies its body
	// into a buffer of its own.
	p0 := len(kc.code)
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
	p1 := len(kc.code)
	if pageRun {
		kc.restore(s0)
		backEdge = kc.spanLoop(l, w, iter, rv, rh, rlo, lTop, lEnd)
	} else {
		kc.emit(kinstr{op: opSetSlot, a: rv, imm: int64(l.Slot)})
		backEdge = kinstr{op: opLoopEndS, dst: rv, a: uint16(l.Slot), b: rh, imm: l.Step, imm2: int64(lTop)}
	}
	kc.mark(lTop)
	p2 := len(kc.code)
	kc.code = append(kc.code, ctx.hoist...)
	kc.emit(kinstr{op: opJumpGeI, a: rv, b: rh, imm: int64(lEnd)})
	// body, front, hoist and guard -> hoist and guard, front, body
	code := kc.code
	slices.Reverse(code[p0:p1])
	slices.Reverse(code[p1:p2])
	slices.Reverse(code[p2:])
	slices.Reverse(code[p0:])
	kc.loops = kc.loops[:depth]
	kc.reports[ri].Hints = ctx.hints
	kc.emit(backEdge)
	kc.mark(lEnd)

	kc.restore(snap)
	kc.invalidate(ctx.written, ctx.fwritten)
}
