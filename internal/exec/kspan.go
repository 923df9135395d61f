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
	written map[int]bool // int slots the body writes
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

// invariant reports whether slot holds one value across the loop, or is
// bound in abs.
func (w *spanWalk) invariant(slot int) bool { return !w.written[slot] || w.bound(slot) != nil }

// spanSites decides whether l runs as a page-run loop. It returns the
// finished walk with ReasonSpecialized when it does — or, from a recording
// compile, with ReasonRecording: a span body would lower each reference a
// second time and batch away the per-access fault attribution the recorder
// exists for, but the loop still speaks for the inner loops it would have
// absorbed — and nil with the reason otherwise (the site numbering left
// untouched).
func (kc *kcompiler) spanSites(l *ir.Loop) (*spanWalk, FallbackReason) {
	sum := ir.Summarize(l)
	switch {
	case sum.HasHint:
		return nil, ReasonHintInBody
	case sum.HasIf:
		return nil, ReasonControlFlow
	case sum.WritesInductionVar:
		return nil, ReasonInductionWrite
	}
	// The walk appends to the compile's spare site storage; what a page-run
	// loop registers is cut off it for good, anything else is handed back.
	w := &spanWalk{kc: kc, l: l, written: sum.Written, mult: 1, unroll: 1,
		sites: kc.sites, cds: kc.cds, seed: kc.seed}
	nSites, nSubs := kc.nSites, kc.nSubs
	w.stmts(l.Body)
	if len(w.sites) == 0 {
		w.stop(ReasonScalarOnly) // nothing for a span to batch
	}
	if _, trip, ok := ir.StaticTrip(l, kc.params); ok && trip < spanMinTrip {
		w.stop(ReasonShortTrip) // every entry would take opSpanInit's short exit
	}
	if kc.prof != nil {
		w.stop(ReasonRecording)
	}
	if w.reason == ReasonSpecialized {
		kc.sites, kc.cds, kc.seed = w.sites[len(w.sites):], w.cds[len(w.cds):], w.seed[len(w.seed):]
	} else {
		kc.sites, kc.cds, kc.seed = w.sites[:0], w.cds[:0], w.seed[:0]
		kc.nSites, kc.nSubs = nSites, nSubs
		if w.reason != ReasonRecording {
			return nil, w.reason
		}
	}
	return w, w.reason
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
	lo, trip, ok := ir.StaticTrip(x, w.kc.params)
	if !ok || trip == 0 || trip >= spanMinTrip || w.mult*trip > spanMaxUnroll || slices.Contains(w.reads, x.Slot) {
		w.stop(ReasonOuterLoop)
		return
	}
	if w.bound(x.Slot) == nil {
		w.abs = append(w.abs, absVar{slot: x.Slot})
	}
	w.mult *= trip
	w.unroll = max(w.unroll, w.mult)
	for c := int64(0); c < trip; c++ {
		v := lo + c*x.Step
		w.bound(x.Slot).val = v
		w.seeds.rebind(x.Slot, w.kc.iconstReg(v))
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
	for d, ix := range idx {
		coeff, ok := ir.AffineCoeff(ix, w.l.Slot, w.invariant)
		if !ok {
			w.stop(ReasonNonAffineIndex)
			return
		}
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
		if !w.invariant(e.Slot) {
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

// rebind makes the seed table read slot as register r, dropping every
// value derived from what it was bound to before.
func (ctx *kloop) rebind(slot int, r uint16) {
	for k, ent := range ctx.hoistCse {
		uses := false
		ir.IExprSlots(ent.e, func(s int) { uses = uses || s == slot })
		if uses {
			delete(ctx.hoistCse, k)
		}
	}
	var e ir.IExpr = ir.ISlot{Slot: slot}
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
	*kc.buf = append(*kc.buf, w.seeds.hoist...)
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
	lo, trip, _ := ir.StaticTrip(l, kc.params)
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
// subscripts and addresses are then already advanced past the chunk.
// ri is the register file holding the loop's seed registers.
func spanChunk(e *Env, sp *spanLoop, ri []int64, pageWords, v, lo, h int64) int64 {
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
