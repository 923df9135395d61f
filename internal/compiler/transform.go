package compiler

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/ir"
	"repro/internal/locality"
)

// rebuild copies a statement list, recursively transforming every loop
// that has prefetch jobs attached. Statements without loops are shared
// with the original program (they are immutable values).
func (t *transform) rebuild(stmts []ir.Stmt) []ir.Stmt {
	var out []ir.Stmt
	for _, s := range stmts {
		switch x := s.(type) {
		case *ir.Loop:
			out = append(out, t.preloads[x]...)
			body := t.rebuild(x.Body)
			jobs := t.jobs[x]
			if len(jobs) == 0 {
				nl := *x
				nl.Body = body
				out = append(out, &nl)
				continue
			}
			prolog, loop := t.pipeline(x, body, jobs)
			out = append(out, prolog...)
			out = append(out, loop)
		case ir.If:
			out = append(out, ir.If{Cond: x.Cond, Then: t.rebuild(x.Then), Else: t.rebuild(x.Else)})
		default:
			out = append(out, s)
		}
	}
	return out
}

// pipeline software-pipelines the jobs along loop l (whose body has
// already been rebuilt): it emits prolog block prefetches covering the
// first dist iterations of each stream, strip-mines the loop once per
// distinct fetch rate, and plants steady-state prefetch (and bundled
// release) calls at the strip heads. Per-iteration jobs (indirect
// references) are planted at the top of the innermost body.
func (t *transform) pipeline(l *ir.Loop, body []ir.Stmt, jobs []job) ([]ir.Stmt, ir.Stmt) {
	// Prolog: block prefetches for the pipeline startup, before the loop.
	var prolog []ir.Stmt
	for _, j := range jobs {
		if j.kind == locality.Indirect || j.selfStride != 0 {
			continue // no addresses to prefetch without running the loop
		}
		pages := j.dist / j.stripLen * j.pages
		start := l.Lo
		if j.group.Leader.StrideBytes(l) < 0 {
			// Backward sweep: the prolog covers [lo, lo+dist), whose
			// lowest address is at the last of those iterations.
			start = ir.AddI(l.Lo, ir.Int((j.dist-1)*l.Step))
		}
		prolog = append(prolog, ir.Prefetch{
			Arr:   j.group.Leader.Arr,
			Idx:   t.hintIdx(j.group.Leader, l, start),
			Pages: ir.Int(pages),
		})
	}

	// Distinct strip spans (in loop-variable units), widest first.
	spanOf := func(j job) int64 { return j.stripLen * l.Step }
	var spans []int64
	seen := map[int64]bool{}
	for _, j := range jobs {
		if j.stripLen > 1 && !seen[spanOf(j)] {
			seen[spanOf(j)] = true
			spans = append(spans, spanOf(j))
		}
	}
	sort.Slice(spans, func(i, k int) bool { return spans[i] > spans[k] })

	// Innermost: the original loop variable running over one strip (or
	// the whole range when no strip mining happens), with per-iteration
	// jobs planted first.
	var perIter []ir.Stmt
	for _, j := range jobs {
		switch {
		case j.stripLen != 1:
		case j.selfStride != 0:
			perIter = append(perIter, t.selfHint(j)...)
		case j.pipe != nil && j.pipe != l:
			perIter = append(perIter, t.outerHint(j, l)...)
		default:
			perIter = append(perIter, t.steadyState(j, l, ir.ISlot{Slot: l.Slot, Name: l.Var}, l.Step)...)
		}
	}

	build := func(lo, hi ir.IExpr, inner []ir.Stmt) ir.Stmt {
		nl := &ir.Loop{Var: l.Var, Slot: l.Slot, Lo: lo, Hi: hi, Step: l.Step}
		nl.Body = inner
		return nl
	}

	innerBody := append(append([]ir.Stmt{}, perIter...), body...)
	if len(spans) == 0 {
		return prolog, build(l.Lo, l.Hi, innerBody)
	}

	// Nest strip loops from widest (outermost) to narrowest. Each strip
	// level gets a fresh loop variable; the jobs firing at that rate are
	// planted at its head.
	curLo, curHi := l.Lo, l.Hi
	type level struct {
		v        ir.ISlot
		span     int64
		lo, hi   ir.IExpr
		prefetch []ir.Stmt
	}
	var levels []level
	for d, span := range spans {
		v := t.out.NewLoopVar(fmt.Sprintf("%s%d", l.Var, d))
		var pf []ir.Stmt
		for _, j := range jobs {
			if j.stripLen > 1 && spanOf(j) == span {
				pf = append(pf, t.steadyState(j, l, v, l.Step)...)
			}
		}
		levels = append(levels, level{v: v, span: span, lo: curLo, hi: curHi, prefetch: pf})
		curLo = v
		// Each nested segment clamps to the END OF ITS ENCLOSING STRIP,
		// not the original loop bound: strip spans at different levels
		// need not divide each other, and clamping to l.Hi would let a
		// boundary iteration run in two strips.
		curHi = ir.MinI(ir.AddI(v, ir.Int(span)), curHi)
	}

	// Assemble inside-out.
	stmt := build(curLo, curHi, innerBody)
	for i := len(levels) - 1; i >= 0; i-- {
		lv := levels[i]
		nested := append(append([]ir.Stmt{}, lv.prefetch...), stmt)
		sl := &ir.Loop{Var: lv.v.Name, Slot: lv.v.Slot, Lo: lv.lo, Hi: lv.hi, Step: lv.span}
		sl.Body = nested
		stmt = sl
	}
	return prolog, stmt
}

// steadyState emits the strip-head (or per-iteration) prefetch for a job,
// issued dist iterations ahead, with the trailing release one strip
// behind bundled into the same call when enabled. The release is guarded
// so the pipeline's first strips do not release live data.
//
// Block prefetches always fetch pages forward from their start address,
// so for a negative-stride reference (a backward sweep) the start must be
// the far end of the target strip: the variable offset gains an extra
// strip span minus one step, and the release strip's start is one step
// behind rather than one span.
func (t *transform) steadyState(j job, l *ir.Loop, at ir.ISlot, step int64) []ir.Stmt {
	lead := j.group.Leader
	span := j.stripLen * step
	neg := lead.StrideBytes(l) < 0
	distSpan := j.dist * step
	if neg {
		distSpan += span - step
	}
	target := ir.AddI(at, ir.Int(distSpan))
	pf := ir.Prefetch{
		Arr:   lead.Arr,
		Idx:   t.hintIdx(lead, l, target),
		Pages: ir.Int(j.pages),
	}
	if !j.release {
		return []ir.Stmt{pf}
	}
	trail := j.group.Trailer
	relOff := span
	if neg {
		relOff = step
	}
	rel := ir.SubI(at, ir.Int(relOff))
	bundled := ir.PrefetchRelease{
		PfArr: pf.Arr, PfIdx: pf.Idx, PfPages: pf.Pages,
		RelArr: trail.Arr, RelIdx: t.hintIdx(trail, l, rel), RelPages: ir.Int(j.pages),
	}
	// if (at >= lo + span) prefetch_release else prefetch
	return []ir.Stmt{ir.If{
		Cond: ir.CmpI{Op: ir.Ge, A: at, B: ir.AddI(l.Lo, ir.Int(span))},
		Then: []ir.Stmt{bundled},
		Else: []ir.Stmt{pf},
	}}
}

// selfHint emits the per-iteration hint for a self-relative stride job:
// the reference's own subscripts with the last dimension advanced by the
// observed stride times the distance — the final one, after the in-flight
// budget, so the hint leads by what the plan reports. The hint path clamps addresses and
// never bounds-checks, so running past the array is safe, and a hint is
// non-binding, so a wrongly predicted stride costs only a wasted fetch.
func (t *transform) selfHint(j job) []ir.Stmt {
	lead := j.group.Leader
	idx := make([]ir.IExpr, len(lead.Idx))
	copy(idx, lead.Idx)
	last := len(idx) - 1
	idx[last] = ir.AddI(idx[last], ir.Int(j.selfStride*j.dist))
	return []ir.Stmt{ir.Prefetch{Arr: lead.Arr, Idx: idx, Pages: ir.Int(j.pages)}}
}

// outerHint emits the per-iteration hint for an indirect job pipelined
// along an outer driving loop (profile-guided): the subscripts are
// re-evaluated with the outer variable advanced dist iterations (clamped
// to its last value), while the loops between the outer loop and the
// plant point stay live — e.g. x[col[(i+dist)*nz+k]] hinted from the
// (i, k) body when the latency does not fit k's trip count.
func (t *transform) outerHint(j job, plant *ir.Loop) []ir.Stmt {
	lead := j.group.Leader
	pipe := j.pipe
	target := ir.AddI(ir.ISlot{Slot: pipe.Slot, Name: pipe.Var}, ir.Int(j.dist*pipe.Step))
	return []ir.Stmt{ir.Prefetch{
		Arr:   lead.Arr,
		Idx:   t.hintIdxAt(lead, pipe, plant, target),
		Pages: ir.Int(j.pages),
	}}
}

// hintIdx builds the subscript list for a hint derived from ref, with the
// pipeline loop's variable replaced by target (clamped to the loop's last
// valid value so indirect loads in the subscript stay in bounds) and the
// variables of loops nested inside the pipeline loop replaced by their
// lower bounds (their value at the start of the target iteration).
func (t *transform) hintIdx(ref *locality.Ref, l *ir.Loop, target ir.IExpr) []ir.IExpr {
	return t.hintIdxAt(ref, l, l, target)
}

// hintIdxAt is hintIdx with distinct pipeline and plant loops: loop
// variables between the two remain live at the plant point and are kept;
// only loops nested inside the plant loop fall back to their lower
// bounds.
func (t *transform) hintIdxAt(ref *locality.Ref, pipe, plant *ir.Loop, target ir.IExpr) []ir.IExpr {
	last := ir.SubI(pipe.Hi, ir.Int(pipe.Step)) // last value the variable takes
	clamped := ir.MinI(target, last)
	repl := map[int]ir.IExpr{pipe.Slot: clamped}
	inner := false
	for _, pl := range ref.Path {
		if pl == plant {
			inner = true
			continue
		}
		if inner {
			repl[pl.Slot] = pl.Lo
		}
	}
	out := make([]ir.IExpr, len(ref.Idx))
	for i, ix := range ref.Idx {
		out[i], _ = substIExpr(ix, repl)
	}
	return out
}

// substIExpr replaces slot reads according to repl, recursively applying
// the substitution to the replacement expressions as well (minus the slot
// being replaced, to avoid cycles), and reports whether it replaced any. A
// subtree that reads no replaced slot is returned as it is: expression
// nodes are immutable values, so the result shares it with e.
func substIExpr(e ir.IExpr, repl map[int]ir.IExpr) (ir.IExpr, bool) {
	switch x := e.(type) {
	case ir.ISlot:
		if r, ok := repl[x.Slot]; ok {
			sub := make(map[int]ir.IExpr, len(repl))
			for k, v := range repl {
				if k != x.Slot {
					sub[k] = v
				}
			}
			r, _ = substIExpr(r, sub)
			return r, true
		}
	case ir.IBin:
		a, ca := substIExpr(x.A, repl)
		b, cb := substIExpr(x.B, repl)
		if ca || cb {
			return ir.IBin{Op: x.Op, A: a, B: b}, true
		}
	case ir.ILoad:
		var idx []ir.IExpr
		for i, ix := range x.Idx {
			if sub, changed := substIExpr(ix, repl); changed {
				if idx == nil {
					idx = slices.Clone(x.Idx)
				}
				idx[i] = sub
			}
		}
		if idx != nil {
			return ir.ILoad{Arr: x.Arr, Idx: idx}, true
		}
	}
	return e, false
}
