// Page-run loop specialization, lowered to kernel bytecode.
//
// An innermost loop whose body is straight-line assignments with affine,
// constant-stride subscripts touches each array through runs of
// consecutive (or constant-stride) words on the same page. The
// per-element lowering pays a VM probe per element; the span lowering
// pays one residency check per page run and iterates raw frame-word
// slices in between.
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

import "repro/internal/ir"

// spanMinTrip is the trip count below which an entry into a page-run
// loop stays on the per-element body. Short invocations cannot amortize
// the chunk logic (lazy subscript seeding, chunk sizing, span
// acquisition); strip-mined nests like the FFT butterflies run the same
// loop at trips from 1 to thousands, so the choice is made per entry, by
// opSpanInit. Both bodies charge and fault identically — the guard only
// moves host time.
const spanMinTrip = 8

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
	delta   int64      // word advance per iteration: Σ coeff_d·stride_d · step
	cds     []int64    // per-dimension subscript advance: coeff_d · step
	seed    []uint16   // registers holding each subscript's value at v = lo
	idx     []ir.IExpr // the subscripts, lowered into seed by the preheader
	arr     *ir.Array
}

// spanLoop is the compile-time description of one page-run loop. It is
// immutable after compilation; everything a run mutates lives in Env.
type spanLoop struct {
	slot    int
	step    int64
	perIter int64 // user ops one iteration charges: loopCost's iter plus the body's statements
	sites   []spanSite
}

// spanWalk is the page-run eligibility walk over one loop body. It
// visits every array reference in evaluation (first-touch) order,
// registering a site for each, and records the reason of the first
// reference or statement the span lowering cannot take.
type spanWalk struct {
	kc        *kcompiler
	l         *ir.Loop
	invariant func(slot int) bool // no statement of the body writes slot
	sites     []spanSite
	reason    FallbackReason
}

// spanSites decides whether l runs as a page-run loop. It returns the
// loop's access sites and ReasonSpecialized when it does, and the reason
// it does not otherwise (with the site numbering left untouched). A
// recording compile declines every eligible loop: a span body would lower
// each reference a second time and batch away the per-access fault
// attribution the recorder exists for.
func (kc *kcompiler) spanSites(l *ir.Loop) ([]spanSite, FallbackReason) {
	sum := ir.Summarize(l)
	switch {
	case !sum.Innermost:
		return nil, ReasonOuterLoop
	case sum.HasHint:
		return nil, ReasonHintInBody
	case sum.HasIf:
		return nil, ReasonControlFlow
	case sum.WritesInductionVar:
		return nil, ReasonInductionWrite
	}
	w := &spanWalk{kc: kc, l: l, invariant: func(slot int) bool { return !sum.Written[slot] }}
	nSites, nSubs := kc.nSites, kc.nSubs
	for _, s := range l.Body {
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
		default:
			w.stop(ReasonUnsupportedBody)
		}
	}
	if len(w.sites) == 0 {
		w.stop(ReasonScalarOnly) // nothing for a span to batch
	}
	if kc.prof != nil {
		w.stop(ReasonRecording)
	}
	if w.reason != ReasonSpecialized {
		kc.nSites, kc.nSubs = nSites, nSubs
		return nil, w.reason
	}
	return w.sites, ReasonSpecialized
}

func (w *spanWalk) stop(r FallbackReason) {
	if w.reason == ReasonSpecialized {
		w.reason = r
	}
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
	cds := make([]int64, len(idx))
	for d, ix := range idx {
		coeff, ok := ir.AffineCoeff(ix, w.l.Slot, w.invariant)
		if !ok {
			w.stop(ReasonNonAffineIndex)
			return
		}
		elemCoeff += coeff * arr.Strides[d]
		cds[d] = coeff * w.l.Step
	}
	delta := elemCoeff * w.l.Step
	if pw := int64(1) << (w.kc.shift - 3); delta >= pw || -delta >= pw {
		w.stop(ReasonPageStride) // every chunk would be a single iteration
		return
	}
	w.sites = append(w.sites, spanSite{
		id: w.kc.nSites, subBase: w.kc.nSubs, write: write,
		delta: delta, cds: cds, idx: idx, arr: arr,
	})
	w.kc.nSites++
	w.kc.nSubs += len(idx)
}

// iexpr visits x's array references and reports whether x goes through
// memory or a float conversion (which makes it useless as a subscript).
func (w *spanWalk) iexpr(x ir.IExpr) bool {
	switch e := x.(type) {
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

// spanLoop emits a page-run loop around its two bodies. elem is the
// per-element body, already lowered; the span body is lowered here, from
// the value-numbering state the caller has reset to the one elem started
// from (only facts the preheader established). Layout:
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
func (kc *kcompiler) spanLoop(l *ir.Loop, sites []spanSite, elem []kinstr, iter int64, rv, rh, rlo uint16, lEnd int) {
	if len(kc.spans) > 0xFFFF {
		kc.overflow = true
		return
	}
	id := uint16(len(kc.spans))
	lEnter, lSpan, lElem := kc.newLabel(), kc.newLabel(), kc.newLabel()
	kc.emit(kinstr{op: opSetSlot, a: rv, imm: int64(l.Slot)})
	kc.emit(kinstr{op: opSpanInit, a: rv, b: rh, imm: int64(lElem), imm2: spanMinTrip * l.Step})

	// The seeds are only evaluated on the long-trip path and only hold at
	// v = lo, so no fact they establish may reach either body: they are
	// lowered like hoisted code, from the slots alone (the preheader has
	// just stored lo in the induction slot) into a table of their own.
	seeds := &kloop{hoistCse: map[uint64]cseEnt{}}
	for i := range sites {
		s := &sites[i]
		s.seed = make([]uint16, len(s.idx))
		for d, ix := range s.idx {
			s.seed[d] = kc.compileHoisted(ix, seeds)
		}
	}
	*kc.buf = append(*kc.buf, seeds.hoist...)
	kc.mark(lEnter)
	kc.emit(kinstr{op: opSpanEnter, dst: id, a: rv, b: rh, imm: int64(lElem), imm2: int64(rlo)})

	// The span body charges nothing itself: whatever the statement
	// lowering left pending is the per-iteration cost spanChunk batches.
	kc.mark(lSpan)
	kc.spanNext = sites[0].id
	kc.pending = iter
	kc.stmts(l.Body)
	perIter := kc.takePending()
	kc.spanNext = -1
	kc.emit(kinstr{op: opSpanNext, dst: rv, a: rh, b: id, imm: int64(lSpan), imm2: int64(lEnter)})
	kc.emit(kinstr{op: opJump, imm: int64(lEnd)})

	kc.mark(lElem)
	*kc.buf = append(*kc.buf, elem...)
	kc.emit(kinstr{op: opSpanSlow, dst: rv, a: rh, b: id, imm: int64(lElem), imm2: int64(lEnter)})
	kc.spans = append(kc.spans, spanLoop{slot: l.Slot, step: l.Step, perIter: perIter, sites: sites})
}

// spanAccess emits one span-body array access, to or from register reg,
// through the next site in first-touch order — the order spanSites
// registered them in.
func (kc *kcompiler) spanAccess(op kop, reg uint16) uint16 {
	kc.emit(kinstr{op: op, dst: reg, imm: int64(kc.spanNext)})
	kc.spanNext++
	return reg
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
	// bounds, hence the re-seed flag.)
	for i := range sp.sites {
		s := &sp.sites[i]
		for d, dim := range s.arr.Dims {
			if ix := e.subs[s.subBase+d]; ix < 0 || ix >= dim {
				e.spanValid = false
				return 0
			}
		}
	}

	// Size the chunk: iterations until any site leaves its page, capped
	// by the iterations left (including this one).
	for i := range sp.sites {
		s := &sp.sites[i]
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
	e.vm.AddUserOps(k * sp.perIter)
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
