// Page-run loop specialization, lowered to kernel bytecode.
//
// A loop whose body is straight-line assignments with affine,
// constant-stride subscripts touches each array through runs of
// consecutive (or constant-stride) words on the same page. The
// per-element lowering pays a VM probe per element; the span lowering
// pays one residency check per page run and iterates raw frame-word
// slices in between. Inner loops of a small compile-time trip count do not
// stand in the way: the loop absorbs them, unrolled, into its span body.
//
// An eligible loop is emitted as two bodies. The per-element body is the
// ordinary kernel lowering; it runs short-trip entries (spanMinTrip),
// every iteration the chunk logic declines, and therefore every fault,
// fault classification and bounds trap — each lands exactly where it
// always did. The span body is the same statements with every array
// access replaced by a cursor into Env.sites; it only ever runs
// iterations whose pages spanChunk has just proved hot.
//
// Equivalence with the per-element path is exact, not approximate, and
// rests on one property of the simulator: simulated time only advances at
// kernel crossings (faults and hint system calls), and eligible bodies
// contain no hints. A span acquires only a hot page and applies exactly
// the page marks the chunk's accesses would (vm.PageSpan: referenced,
// plus dirty for writes — page-granular and idempotent, and nothing can
// observe page state between crossings), and the chunk's user-op charges
// are one AddUserOps call (pending ops are a plain sum). If any page
// turns out not to be hot the chunk is declined and the per-element body
// faults exactly where the oracle would; span acquisition follows the
// body's first-touch order so a declined chunk leaves precisely the marks
// the per-element iteration makes before its first fault.
package exec

import (
	"math"
	"slices"

	"repro/internal/ir"
)

// spanMinTrip is the trip count below which an entry into a page-run
// loop stays on the per-element body. Short invocations cannot amortize
// the chunk logic (lazy subscript seeding, chunk sizing, span
// acquisition); strip-mined nests like the FFT butterflies run the same
// loop at trips from 1 to thousands, so the choice is made per entry, by
// opSpanInit. Both bodies charge and fault identically — the guard only
// moves host time.
const spanMinTrip = 8

// spanMaxUnroll caps the product of the trip counts a page-run loop
// absorbs: its span body is that many copies of the innermost statements
// (5 and 5 × 5 are the NAS shapes).
const spanMaxUnroll = 32

// runSite is the per-execution state of one specialized array access: the
// frame words of the page the current chunk stays on, the word index of
// the current iteration's element, its per-iteration advance, and the
// incrementally-maintained element byte address chunks are sized from.
type runSite struct {
	span  []uint64
	pos   int64
	delta int64
	addr  int64
}

// spanSite is the compile-time description of one access site, in the
// body's first-touch order. Subscripts are affine in the loop variable
// with loop-invariant remainder, so the loop preheader evaluates each
// once at v = lo into the seed registers and spanChunk afterwards
// maintains every dimension's subscript value incrementally in Env.subs:
// bounds checks and chunk sizing are integer compares on maintained
// state.
type spanSite struct {
	id      int
	subBase int // first slot of this site's subscripts in Env.subs
	write   bool
	delta   int64    // word advance per iteration: Σ coeff_d·stride_d · step
	cds     []int64  // per-dimension subscript advance: coeff_d · step
	seed    []uint16 // registers holding each subscript's value at v = lo
	arr     *ir.Array
}

// absVar is the induction slot of an absorbed inner loop and the constant
// it holds in the unrolled copy being walked; after the walk, the last
// copy's: what an iteration of the absorbing loop leaves in the slot.
type absVar struct {
	slot int
	val  int64
}

// spanLoop is the compile-time description of one page-run loop. It is
// immutable after compilation; everything a run mutates lives in Env.
type spanLoop struct {
	slot    int
	step    int64
	perIter int64 // user ops one iteration charges: loopCost's iter plus the body's statements, absorbed loops included
	sites   []spanSite
	finals  []absVar // absorbed induction slots: a chunk stores each one's final value once
}

// spanWalk is the page-run eligibility walk over one loop body, absorbed
// inner loops unrolled. It visits every array reference in evaluation
// (first-touch) order, registering a site for each and lowering its
// subscripts at v = lo into the seed table, and records the reason of the
// first reference or statement the span lowering cannot take.
type spanWalk struct {
	kc      *kcompiler
	l       *ir.Loop
	written slotSet // int slots the body writes
	sites   []spanSite
	cds     []int64  // backing store of every site's cds
	seed    []uint16 // and of every site's seed
	seeds   kloop    // the seed code, lowered like hoisted code: from the slots alone
	abs     []absVar
	reads   []int // written slots read while not bound: none may be absorbed later
	mult    int64 // product of the open absorbed loops' trip counts
	unroll  int64 // its maximum: copies of the innermost statements in the span body
	reason  FallbackReason
}

// role is what a subscript's decomposition makes of slot: the loop
// variable varies; a slot the body does not write, or one bound in abs,
// holds one value across the loop; any other is opaque.
func (w *spanWalk) role(slot int) ir.SlotRole {
	switch {
	case slot == w.l.Slot:
		return ir.Var
	case !w.written.has(slot) || w.bound(slot) != nil:
		return ir.Fixed
	}
	return ir.Opaque
}

// spanSites decides whether l runs as a page-run loop, given its context,
// which holds the int slots its body writes. It returns the finished walk
// with ReasonSpecialized when it does — or, from a recording compile, with
// ReasonRecording: a span body would lower each reference a second time
// and batch away the per-access fault attribution the recorder exists
// for, but the loop still speaks for the inner loops it would have
// absorbed — and nil with the reason otherwise (the site numbering left
// untouched).
func (kc *kcompiler) spanSites(l *ir.Loop, ctx *kloop) (*spanWalk, FallbackReason) {
	hint, branch := bodyShape(l.Body)
	switch {
	case hint:
		return nil, ReasonHintInBody
	case branch:
		return nil, ReasonControlFlow
	case ctx.written.has(l.Slot):
		return nil, ReasonInductionWrite
	}
	// The walk appends past the sites the compile's walks kept; a page-run
	// loop keeps what it registers, anything else is handed back. The walk
	// itself, its seed table and its reads are the compile's: one walk is
	// live at a time, as a page-run loop absorbs its inner loops, which walk
	// nothing of their own.
	w := &kc.walk
	w.seeds.reset()
	*w = spanWalk{kc: kc, l: l, written: ctx.written, mult: 1, unroll: 1, sites: kc.sites[len(kc.sites):],
		cds: kc.cds[len(kc.cds):], seed: kc.seed[len(kc.seed):], abs: kc.abs, seeds: w.seeds, reads: w.reads[:0]}
	nSites, nSubs := kc.nSites, kc.nSubs
	w.stmts(l.Body)
	if len(w.sites) == 0 {
		w.stop(ReasonScalarOnly) // nothing for a span to batch
	}
	if _, trip, ok := ir.StaticTrip(l, kc.param); ok && trip < spanMinTrip {
		w.stop(ReasonShortTrip) // every entry would take opSpanInit's short exit
	}
	if kc.prof != nil {
		w.stop(ReasonRecording)
	}
	if w.reason == ReasonSpecialized {
		kc.sites, kc.cds, kc.seed = append(kc.sites, w.sites...), append(kc.cds, w.cds...), append(kc.seed, w.seed...)
		kc.abs = w.abs[len(w.abs):]
	} else {
		kc.abs = w.abs[:0]
		kc.nSites, kc.nSubs = nSites, nSubs
		if w.reason != ReasonRecording {
			return nil, w.reason
		}
	}
	return w, w.reason
}

// bodyShape reports whether body, nested loops and branches included,
// holds a prefetch or release hint (a kernel crossing inside the
// iteration) and whether it holds control flow.
func bodyShape(body []ir.Stmt) (hint, branch bool) {
	ir.WalkStmts(body, func(s ir.Stmt) {
		switch s.(type) {
		case ir.If:
			branch = true
		case ir.Prefetch, ir.Release, ir.PrefetchRelease:
			hint = true
		}
	})
	return hint, branch
}

func (w *spanWalk) stop(r FallbackReason) {
	if w.reason == ReasonSpecialized {
		w.reason = r
	}
}

// bound returns the absorbed-variable entry of slot, if it has one.
func (w *spanWalk) bound(slot int) *absVar {
	for i := range w.abs {
		if w.abs[i].slot == slot {
			return &w.abs[i]
		}
	}
	return nil
}

func (w *spanWalk) stmts(body []ir.Stmt) {
	for _, s := range body {
		if w.reason != ReasonSpecialized {
			return
		}
		switch x := s.(type) {
		case ir.AssignF:
			w.fexpr(x.RHS) // RHS sites first: evaluation order
			w.ref(x.Arr, x.Idx, true)
		case ir.AssignI:
			w.iexpr(x.RHS)
			w.ref(x.Arr, x.Idx, true)
		case ir.SetScalarF:
			w.fexpr(x.RHS)
		case ir.SetScalarI:
			w.iexpr(x.RHS)
			if w.bound(x.Slot) != nil {
				w.stop(ReasonInductionWrite)
			}
		case *ir.Loop:
			w.absorb(x)
		default:
			w.stop(ReasonUnsupportedBody)
		}
	}
}

// absorb walks inner loop x as trip copies of its body, its induction
// slot bound to each copy's constant — when x has compile-time bounds and
// a trip count it could never run spans on by itself, within the unroll
// budget. Nothing may have read the slot earlier in the iteration: the
// span body never stores it, a chunk only leaves its final value behind.
func (w *spanWalk) absorb(x *ir.Loop) {
	lo, trip, ok := ir.StaticTrip(x, w.kc.param)
	if !ok || trip == 0 || trip >= spanMinTrip || w.mult*trip > spanMaxUnroll || slices.Contains(w.reads, x.Slot) {
		w.stop(ReasonOuterLoop)
		return
	}
	if w.bound(x.Slot) == nil {
		w.abs = append(w.abs, absVar{slot: x.Slot})
	}
	w.mult *= trip
	w.unroll = max(w.unroll, w.mult)
	e := ir.IExpr(ir.ISlot{Slot: x.Slot}) // boxed once for every copy
	for c := int64(0); c < trip; c++ {
		v := lo + c*x.Step
		w.bound(x.Slot).val = v
		w.seeds.rebind(e, x.Slot, w.kc.iconstReg(v))
		w.stmts(x.Body)
	}
	w.mult /= trip
}

// ref registers an access site for arr[idx...], or stops the walk when a
// subscript is not affine in the loop variable with loop-invariant
// remainder, or the stride reaches a full page.
func (w *spanWalk) ref(arr *ir.Array, idx []ir.IExpr, write bool) {
	indirect := false
	for _, ix := range idx {
		if w.iexpr(ix) {
			indirect = true
		}
	}
	if len(idx) != len(arr.Strides) {
		w.stop(ReasonUnsupportedBody) // stmtCost reports the arity error
		return
	}
	if indirect {
		w.stop(ReasonIndirectIndex)
		return
	}
	var elemCoeff int64
	nc, ns := len(w.cds), len(w.seed)
	f := &w.kc.form
	for d, ix := range idx {
		f.Decompose(ix, nil, w.role)
		if f.Residual || f.Indirect {
			w.stop(ReasonNonAffineIndex)
			return
		}
		coeff := f.Coeff(w.l.Slot)
		elemCoeff += coeff * arr.Strides[d]
		w.cds = append(w.cds, coeff*w.l.Step)
	}
	delta := elemCoeff * w.l.Step
	if pw := int64(1) << (w.kc.shift - 3); delta >= pw || -delta >= pw {
		w.stop(ReasonPageStride) // every chunk would be a single iteration
		return
	}
	if w.reason != ReasonSpecialized {
		return
	}
	// The seeds only hold at v = lo, so no fact they establish may reach
	// either body: they go to a table of their own, where an absorbed
	// variable is its constant (the preheader's slot holds something else).
	for _, ix := range idx {
		w.seed = append(w.seed, w.kc.compileHoisted(ix, &w.seeds))
	}
	w.sites = append(w.sites, spanSite{
		id: w.kc.nSites, subBase: w.kc.nSubs, write: write, delta: delta,
		cds: w.cds[nc:len(w.cds):len(w.cds)], seed: w.seed[ns:len(w.seed):len(w.seed)], arr: arr,
	})
	w.kc.nSites++
	w.kc.nSubs += len(idx)
}

// iexpr visits x's array references and reports whether x goes through
// memory or a float conversion (which makes it useless as a subscript).
func (w *spanWalk) iexpr(x ir.IExpr) bool {
	switch e := x.(type) {
	case ir.ISlot:
		if w.role(e.Slot) == ir.Opaque {
			w.reads = append(w.reads, e.Slot)
		}
	case ir.IBin:
		a := w.iexpr(e.A)
		b := w.iexpr(e.B)
		return a || b
	case ir.ILoad:
		w.ref(e.Arr, e.Idx, false)
		return true
	case ir.IFromF:
		w.fexpr(e.X)
		return true
	}
	return false
}

func (w *spanWalk) fexpr(x ir.FExpr) {
	switch e := x.(type) {
	case ir.FLoad:
		w.ref(e.Arr, e.Idx, false)
	case ir.FBin:
		w.fexpr(e.A)
		w.fexpr(e.B)
	case ir.FNeg:
		w.fexpr(e.X)
	case ir.FromInt:
		w.iexpr(e.X)
	case ir.FCall:
		for _, a := range e.Args {
			w.fexpr(a)
		}
	}
}

// rebind makes the seed table read slot, whose expression is e, as
// register r, dropping every value derived from what it was bound to
// before.
func (ctx *kloop) rebind(e ir.IExpr, slot int, r uint16) {
	ctx.hoistCse = slices.DeleteFunc(ctx.hoistCse, func(h hoistEnt) bool {
		uses := false
		ir.IExprSlots(h.e, func(s int) { uses = uses || s == slot })
		return uses
	})
	ctx.setHoist(keyI(e), cseEnt{e: e, r: r})
}

// spanLoop emits the span half of a page-run loop — everything between
// the trip guard and the per-element body, which the caller has already
// lowered and marks lElem — and returns the instruction that closes that
// body. The span body is lowered here, from the value-numbering state the
// caller has reset to the one the per-element body started from (only
// facts the preheader established). Layout:
//
//	        SetSlot    the first induction value, as in any kernel loop
//	        SpanInit   short trip -> elem
//	        <seed>     each site's subscripts at v = lo, pure ALU
//	enter:  SpanEnter  chunk declined -> elem
//	span:   <span body>
//	        SpanNext   in chunk -> span; chunk done, trips left -> enter
//	        Jump end
//	elem:   <per-element body>
//	        SpanSlow   trips left -> elem (short entry) or enter
//	end:
func (kc *kcompiler) spanLoop(l *ir.Loop, w *spanWalk, iter int64, rv, rh, rlo uint16, lElem, lEnd int) kinstr {
	if len(kc.spans) > 0xFFFF {
		kc.full("span table")
		return kinstr{}
	}
	id := uint16(len(kc.spans))
	lEnter, lSpan := kc.newLabel(), kc.newLabel()
	kc.emit(kinstr{op: opSetSlot, a: rv, imm: int64(l.Slot)})
	kc.emit(kinstr{op: opSpanInit, a: rv, b: rh, imm: int64(lElem), imm2: spanMinTrip * l.Step})
	kc.code = append(kc.code, w.seeds.hoist...)
	kc.mark(lEnter)
	kc.emit(kinstr{op: opSpanEnter, dst: id, a: rv, b: rh, imm: int64(lElem), imm2: int64(rlo)})

	// The span body charges nothing itself: whatever the statement
	// lowering left pending is the per-iteration cost spanChunk batches.
	kc.mark(lSpan)
	kc.spanNext = w.sites[0].id
	kc.pending = iter
	kc.stmts(l.Body)
	perIter := kc.takePending()
	kc.spanNext = -1
	kc.emit(kinstr{op: opSpanNext, dst: rv, a: rh, b: id, imm: int64(lSpan), imm2: int64(lEnter)})
	kc.emit(kinstr{op: opJump, imm: int64(lEnd)})
	kc.spans = append(kc.spans, spanLoop{slot: l.Slot, step: l.Step, perIter: perIter, sites: w.sites, finals: w.abs})
	return kinstr{op: opSpanSlow, dst: rv, a: rh, b: id, imm: int64(lElem), imm2: int64(lEnter)}
}

// unroll lowers an absorbed loop inside a span body: trip copies of its
// statements with the induction slot bound to each copy's constant. The
// charges stay the original nest's — loopCost's head and iter and every
// statement's stmtCost price the slot read, not the constant — and the
// value-numbering facts over the slot are dropped between copies.
func (kc *kcompiler) unroll(l *ir.Loop) {
	lo, trip, _ := ir.StaticTrip(l, kc.param)
	head, iter, _ := loopCost(l)
	kc.charge(head)
	for c := int64(0); c < trip; c++ {
		kc.invalidateSlot(l.Slot)
		kc.setBind(l.Slot, kc.iconstReg(lo+c*l.Step))
		kc.charge(iter)
		kc.stmts(l.Body)
	}
}

// spanChunk decides how iteration v (of a loop running lo..h) proceeds.
// It returns 0 when the iteration must run on the per-element body, or
// the length k >= 2 of a chunk of iterations, v included, whose spans it
// has acquired and whose user ops it has charged; the maintained
// subscripts and addresses are then already advanced past the chunk, and
// e.laneW says how the entry runs its chunks (ll: the loop's lane-wise
// form). ri is the register file holding the loop's seed registers.
func spanChunk(e *Env, sp *spanLoop, ll *laneLoop, ri []int64, pageWords, v, lo, h int64) int64 {
	k := (h - v + sp.step - 1) / sp.step
	if k < 2 {
		return 0
	}
	byteMask := pageWords*ir.ElemSize - 1

	// Per-site element addresses and per-dimension subscript values are
	// maintained incrementally: each is affine in the loop variable (every
	// other subscript input is loop-invariant by eligibility), so they are
	// seeded lazily from the preheader's values at lo and afterwards
	// advance as plain integers.
	if !e.spanValid {
		n := (v - lo) / sp.step
		for i := range sp.sites {
			s := &sp.sites[i]
			var li int64
			for d, r := range s.seed {
				ix := ri[r] + s.cds[d]*n
				e.subs[s.subBase+d] = ix
				li += ix * s.arr.Strides[d]
			}
			e.sites[s.id].addr = s.arr.Base + li*ir.ElemSize
		}
		e.spanValid = true
		e.laneW = laneWidth(e, sp, ll)
	}

	// Bounds at this iteration. A failure means the body itself will trap
	// on this iteration's subscripts: the per-element body runs and traps
	// at its exact site with the body's partial effects in place. (The
	// maintained address is only meaningful while subscripts are in
	// bounds, hence the re-seed flag.) Then size the chunk: iterations
	// until any site leaves its page, capped by the iterations left
	// (including this one).
	for i := range sp.sites {
		s := &sp.sites[i]
		for d, dim := range s.arr.Dims {
			if ix := e.subs[s.subBase+d]; ix < 0 || ix >= dim {
				e.spanValid = false
				return 0
			}
		}
		off := (e.sites[s.id].addr & byteMask) >> 3
		switch {
		case s.delta > 0:
			if kk := (pageWords-1-off)/s.delta + 1; kk < k {
				k = kk
			}
		case s.delta < 0:
			if kk := off/(-s.delta) + 1; kk < k {
				k = kk
			}
		}
	}
	if k < 2 {
		return 0
	}

	// Chunk-exit bounds: affine subscripts are monotone in v, so with this
	// iteration checked above, checking the chunk's last iteration covers
	// every iteration in between.
	for i := range sp.sites {
		s := &sp.sites[i]
		for d, dim := range s.arr.Dims {
			if ix := e.subs[s.subBase+d] + s.cds[d]*(k-1); ix < 0 || ix >= dim {
				return 0
			}
		}
	}

	// Acquire spans in first-touch order. On failure at site i the sites
	// before i carry exactly the marks the per-element body applies before
	// faulting at site i, and the per-element body runs this iteration to
	// fault, classify, and charge precisely as the oracle does.
	for i := range sp.sites {
		s := &sp.sites[i]
		addr := e.sites[s.id].addr
		first := (addr & byteMask) >> 3
		loW, n := first, s.delta*(k-1)+1
		if s.delta < 0 {
			loW, n = first+s.delta*(k-1), -s.delta*(k-1)+1
		}
		base := addr &^ byteMask
		var span []uint64
		var ok bool
		if s.write {
			span, _, ok = e.vm.PageSpanW(base+loW*ir.ElemSize, n)
		} else {
			span, _, ok = e.vm.PageSpan(base+loW*ir.ElemSize, n)
		}
		if !ok {
			return 0
		}
		st := &e.sites[s.id]
		st.span, st.pos, st.delta = span, first, s.delta
	}

	// Commit: charge the whole chunk in one batch (the pending-ops sum a
	// crossing observes is what matters, and no crossing can occur inside
	// the chunk).
	ops := k * sp.perIter
	e.vm.AddUserOps(ops)
	for _, f := range sp.finals {
		e.Ints[f.slot] = f.val
	}
	e.Span.Chunks++
	e.Span.Iters += k
	e.Span.UserOps += ops
	advanceSites(e, sp, k)
	return k
}

// advanceSites moves every site's maintained address and per-dimension
// subscript values forward by n iterations.
func advanceSites(e *Env, sp *spanLoop, n int64) {
	for i := range sp.sites {
		s := &sp.sites[i]
		e.sites[s.id].addr += s.delta * ir.ElemSize * n
		for d, c := range s.cds {
			e.subs[s.subBase+d] += c * n
		}
	}
}

// ---- lane-wise chunks ----------------------------------------------------
//
// Nothing inside a committed chunk can fault, trap or cross into the
// kernel: its pages are hot and its charges paid. runLanes therefore runs
// the span body once per strip of up to laneW iterations, each instruction
// one Go loop over the strip's lanes, each register a lane slot. That
// reorders the chunk's effects from iteration-major to instruction-major
// within a strip, which is exact when no value flows from an iteration
// into a later one of the same strip: not through a scalar (ruled out at
// compile time, laneLoop.reason), not through the generator (one draw an
// iteration, drawn in lane order), and not through memory — a store and
// another access of its array meet D/δ iterations apart, so laneWidth caps
// the entry's strips at |D/δ|, and a cap under laneMinCap (a recurrence
// along the loop) keeps the entry on the per-iteration span body.

// laneW is the most iterations a strip covers; laneMinCap the narrowest
// strip worth running lane-wise. Both were chosen on measurements
// (EXPERIMENTS.md, issue 25).
const (
	laneW      = 32
	laneMinCap = 2
)

// laneSlots holds one span-body instruction's lane slots, one per field in
// the order of kinstr.fields — or a site pair: a store site and another
// site of its array, by index into the loop's sites.
type laneSlots [5]uint8

// laneReg is a register the span body reads but does not write, broadcast
// into its lane slot once per entry.
type laneReg struct {
	reg  uint16
	slot uint8
	flt  bool
}

// laneLoop is the lane-wise form of the span body that ends at the
// opSpanNext at pc next: tab holds the npairs site pairs checked at every
// entry, then one laneSlots per body instruction. tab is nil when the body
// does not qualify, and reason says why.
type laneLoop struct {
	tab    []laneSlots
	bcast  []laneReg
	next   int32
	npairs uint16
	iv     int16 // lane slot of the induction register; -1 when the body does not read it
	reason FallbackReason
}

// setOnly is the lane handler of a scalar set, which runLanes does from the
// chunk's last lane.
func setOnly(*Env, *strip, *kinstr) {}

// The lane handlers' scalar operations (kops): runK's expression for each
// opcode.
func add[T int64 | float64](a, b T) T { return a + b }
func sub[T int64 | float64](a, b T) T { return a - b }
func mul[T int64 | float64](a, b T) T { return a * b }
func div(a, b float64) float64        { return a / b }
func shl(a, b int64) int64            { return a << uint(b) }
func shr(a, b int64) int64            { return a >> uint(b) }
func imin(a, b int64) int64           { return min(a, b) }
func imax(a, b int64) int64           { return max(a, b) }
func neg(a float64) float64           { return -a }
func toInt(a float64) int64           { return int64(a) }
func toFloat(a int64) float64         { return float64(a) }
func madd(a, b, c float64) float64    { return a + b*c }
func msub(a, b, c float64) float64    { return a - b*c }
func fromWord(w uint64) int64         { return int64(w) }
func toWord(a int64) uint64           { return uint64(a) }

// fmin and fmax are the oracle's x < y ? x : y, NaN included.
func fmin(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func fmax(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// sum and dot accumulate lanes into acc in lane order.
func sum(acc float64, a []float64) float64 {
	for _, y := range a {
		acc += y
	}
	return acc
}

func dot(acc float64, a, b []float64) float64 {
	for t, y := range a[:len(b)] {
		acc += y * b[t]
	}
	return acc
}

// sitePairs calls f for each store site and every other site of its array
// (a pair of store sites once), by index into sp.sites.
func sitePairs(sp *spanLoop, f func(s, x int)) {
	for i, s := range sp.sites {
		for j, x := range sp.sites {
			if s.write && j != i && x.arr == s.arr && !(x.write && j < i) {
				f(i, j)
			}
		}
	}
}

// laneReason applies the static rules to a span body: every op in the
// lane subset, no scalar both read and written, an accumulated scalar
// touched by its one accumulation only, at most one draw, and equal deltas
// for the sites of a stored array. It returns the verdict and the number
// of site pairs.
func laneReason(body []kinstr, sp *spanLoop) (FallbackReason, uint16) {
	touch := func(in *kinstr) (how, kind byte, slot int64) { // the scalar in touches
		if u := kops[in.op].touch; len(u) == 3 {
			return u[0], u[1], in.imm2
		} else if u != "" {
			return u[0], u[1], in.imm
		}
		return 0, 0, 0
	}
	draws := 0
	for i := range body {
		in := &body[i]
		switch {
		case in.op == opIDiv || in.op == opIMod:
			return ReasonIntDivide, 0
		case kops[in.op].lane == nil:
			return ReasonUnsupportedOp, 0
		case in.op == opRandlc:
			if draws++; draws > 1 {
				return ReasonTwoDraws, 0
			}
		}
		how, kind, slot := touch(in)
		for j := 0; j < len(body) && (how == 'r' || how == 'a'); j++ {
			h, k, s := touch(&body[j])
			if (how == 'r' && (h == 's' || h == 'a') || how == 'a' && h != 0 && j != i) && s == slot && k == kind {
				return ReasonCarriedScalar, 0
			}
		}
	}
	n, mixed := 0, false
	sitePairs(sp, func(s, x int) { n, mixed = n+1, mixed || sp.sites[s].delta != sp.sites[x].delta })
	switch {
	case mixed:
		return ReasonMixedDelta, 0
	case len(sp.sites) > 256:
		return ReasonUnsupportedOp, 0
	}
	return ReasonSpecialized, uint16(n)
}

// laneLoops gives every page-run loop its lane-wise form, or notes in its
// report why it has none, from the assembled span bodies; a first pass
// sizes the one table they are cut from. scratch holds two int32 per
// register (the peephole census, free again).
func (kc *kcompiler) laneLoops(scratch []int32) {
	kc.lanes = make([]laneLoop, len(kc.spans))
	n := 0
	for pc, in := range kc.code {
		if in.op == opSpanNext {
			ll := &kc.lanes[in.b]
			ll.next = int32(pc)
			if ll.reason, ll.npairs = laneReason(kc.code[in.imm:pc], &kc.spans[in.b]); ll.reason == ReasonSpecialized {
				n += int(ll.npairs) + pc - int(in.imm)
			}
		}
	}
	kc.lslots, kc.lregs = make([]laneSlots, 0, n), make([]laneReg, 0, 4*len(kc.spans))
	for i, id := 0, 0; i < len(kc.reports); i++ {
		if r := &kc.reports[i]; r.Driver == "page-run" { // one per span, in span order
			ll := &kc.lanes[id]
			if ll.reason == ReasonSpecialized {
				kc.laneLoop(ll, &kc.spans[id], scratch)
			}
			r.Lanes, r.LaneReason = ll.tab != nil, ll.reason
			id++
		}
	}
}

// laneLoop numbers the lane slots of a qualifying span body by one
// last-use scan and cuts its tables from the compile's.
func (kc *kcompiler) laneLoop(ll *laneLoop, sp *spanLoop, scratch []int32) {
	next := kc.code[ll.next]
	body, rv, t0, b0 := kc.code[next.imm:ll.next], next.dst, len(kc.lslots), len(kc.lregs)
	sitePairs(sp, func(s, x int) { kc.lslots = append(kc.lslots, laneSlots{uint8(s), uint8(x)}) })
	ll.iv = -1

	// last[k][r] (kind k: 0 int, 1 float) is 1 + the index of the last
	// instruction reading register r. slot[k][r] is 1 + its lane slot. A
	// register is written once, before it is read, so one not numbered yet
	// when read is from outside the body: invariant, or the induction
	// register.
	clear(scratch)
	nI, nF := kc.nRI, kc.nRF
	last := [2][]int32{scratch[:nI], scratch[nI : nI+nF]}
	slot := [2][]int32{scratch[nI+nF : 2*nI+nF], scratch[2*nI+nF:]}
	for i := range body {
		regs := body[i].fields()
		for p, r := range kops[body[i].op].roles {
			if r&rd != 0 {
				last[r.kind()][regs[p]] = int32(i + 1)
			}
		}
	}
	// ends[k][s] is 1 + the index of the last reader of the value in slot
	// s. take returns the lowest slot whose value is dead after instruction
	// from: a value from outside gets a slot of its own (from -1, never
	// freed), which nothing writes after the entry's broadcast.
	var ends [2][256]int32
	var high [2]int
	take := func(k int, from, end int32) uint8 {
		s := 0
		for s < high[k] && ends[k][s] > from {
			s++
		}
		if s == high[k] {
			high[k]++
		}
		if s < len(ends[k]) {
			ends[k][s] = end
		}
		return uint8(s)
	}
	for i := range body {
		regs, rs := body[i].fields(), &kops[body[i].op].roles
		var ls laneSlots
		for p, ro := range rs {
			switch k, r := ro.kind(), regs[p]; {
			case ro&rd == 0: // unused, or only written: numbered below
			case slot[k][r] == 0:
				ls[p] = take(k, -1, math.MaxInt32)
				if slot[k][r] = int32(ls[p]) + 1; k == 0 && r == rv {
					ll.iv = int16(ls[p])
				} else {
					kc.lregs = append(kc.lregs, laneReg{reg: r, slot: ls[p], flt: k == 1})
				}
			default:
				ls[p] = uint8(slot[k][r] - 1)
			}
		}
		for p, ro := range rs {
			if ro&wr != 0 {
				k, r := ro.kind(), regs[p]
				ls[p] = take(k, int32(i+1), last[k][r])
				slot[k][r] = int32(ls[p]) + 1
			}
		}
		kc.lslots = append(kc.lslots, ls)
	}
	if high[0] > len(ends[0]) || high[1] > len(ends[1]) {
		ll.reason, kc.lslots, kc.lregs = ReasonUnsupportedOp, kc.lslots[:t0], kc.lregs[:b0]
		return
	}
	ll.tab, ll.bcast = kc.lslots[t0:len(kc.lslots):len(kc.lslots)], kc.lregs[b0:len(kc.lregs):len(kc.lregs)]
	kc.laneNI, kc.laneNF = max(kc.laneNI, high[0]), max(kc.laneNF, high[1])
}

// laneWidth decides, at an entry's first chunk, how its committed chunks
// run: 0 on the per-iteration span body, else lane-wise in strips of the
// returned width — laneW capped at |D/δ| for each listed pair whose
// accesses can meet, D being their address distance in words (constant
// over the entry: the pair shares δ). A lane-wise entry's invariant
// registers are broadcast here.
func laneWidth(e *Env, sp *spanLoop, ll *laneLoop) int64 {
	if ll.tab == nil {
		return 0
	}
	w := int64(laneW)
	for _, p := range ll.tab[:ll.npairs] {
		s := &sp.sites[p[0]]
		d := (e.sites[sp.sites[p[1]].id].addr - e.sites[s.id].addr) / ir.ElemSize
		if s.delta != 0 && d != 0 && d%s.delta == 0 {
			w = min(w, max(d/s.delta, -d/s.delta))
		}
		if w < laneMinCap || s.delta == 0 && d == 0 {
			return 0
		}
	}
	for _, b := range ll.bcast {
		if b.flt {
			fill(e.strip.lf[int(b.slot)*laneW:][:w], e.rf[b.reg])
		} else {
			fill(e.strip.li[int(b.slot)*laneW:][:w], e.ri[b.reg])
		}
	}
	return w
}

// strip is the lane file, li and lf, with laneW words per lane slot, and
// the slots s of the instruction being run over the n lanes of the current
// strip.
type strip struct {
	li []int64
	lf []float64
	s  laneSlots
	n  int
}

func (x *strip) f(p int) []float64 { return x.lf[int(x.s[p])*laneW:][:x.n] }
func (x *strip) i(p int) []int64   { return x.li[int(x.s[p])*laneW:][:x.n] }

func fill[T any](d []T, v T) {
	for t := range d {
		d[t] = v
	}
}

// lane1, lane2 and lane3 compute d from their operands lane by lane, in
// lane order; each inlines into its handler with f.
func lane1[D, A any](d []D, a []A, f func(A) D) {
	a = a[:len(d)]
	for t := range d {
		d[t] = f(a[t])
	}
}

func lane2[D, A, B any](d []D, a []A, b []B, f func(A, B) D) {
	a, b = a[:len(d)], b[:len(d)]
	for t := range d {
		d[t] = f(a[t], b[t])
	}
}

func lane3[D any](d, a, b, c []D, f func(x, y, z D) D) {
	a, b, c = a[:len(d)], b[:len(d)], c[:len(d)]
	for t := range d {
		d[t] = f(a[t], b[t], c[t])
	}
}

// loadLanes and storeLanes walk a site's cursor across the strip.
func loadLanes[D any](d []D, st *runSite, f func(uint64) D) {
	span, pos, delta := st.span, st.pos, st.delta
	for t := range d {
		d[t] = f(span[pos])
		pos += delta
	}
	st.pos = pos
}

func storeLanes[A any](a []A, st *runSite, f func(A) uint64) {
	span, pos, delta := st.span, st.pos, st.delta
	for _, x := range a {
		span[pos] = f(x)
		pos += delta
	}
	st.pos = pos
}

// runLanes runs the k iterations of a committed chunk of sp, whose lane-wise
// form is ll, from induction value v, strip by strip. It leaves memory, the cursors, every scalar the
// body sets and every body register as k iterations of the span body do;
// the caller moves the induction register.
func (m *Machine) runLanes(e *Env, sp *spanLoop, ll *laneLoop, v, k int64) {
	body, slots := m.code[m.code[ll.next].imm:ll.next], ll.tab[ll.npairs:]
	x := &e.strip // in Env, not a local the handlers' calls would move to the heap
	for t0 := int64(0); t0 < k; t0 += e.laneW {
		x.n = int(min(e.laneW, k-t0))
		if ll.iv >= 0 {
			iv := x.li[int(ll.iv)*laneW:][:x.n]
			for t := range iv {
				iv[t] = v + (t0+int64(t))*sp.step
			}
		}
		if tallyOn {
			tally.laneIters += int64(x.n)
		}
		for i := range body {
			in, op := &body[i], &kops[body[i].op]
			x.s = slots[i]
			if tallyOn {
				tally.ops[in.op]++
			}
			op.lane(e, x, in)
			if t0+int64(x.n) < k {
				continue
			}
			// The chunk's last lane is what the body leaves in slots and
			// registers.
			switch last := x.n - 1; {
			case op.touch == "sf":
				e.Floats[in.imm] = x.f(1)[last]
			case op.touch == "si":
				e.Ints[in.imm] = x.i(1)[last]
			case op.touch == "sf2":
				e.Floats[in.imm2] = x.f(0)[last]
			}
			switch last := x.n - 1; op.roles[0] {
			case fW:
				e.rf[in.dst] = x.f(0)[last]
			case iW:
				e.ri[in.dst] = x.i(0)[last]
			}
		}
	}
}
