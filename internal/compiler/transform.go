package compiler

import (
	"cmp"
	"slices"
	"strconv"

	"repro/internal/ir"
	"repro/internal/locality"
)

// rebuild copies a statement list, recursively transforming every loop
// that has prefetch jobs attached. Statements without loops are shared
// with the original program (they are immutable values). The lists are
// cut from t.stmts, and the copies of loops without jobs from t.loops.
func (t *transform) rebuild(stmts []ir.Stmt) []ir.Stmt {
	if len(stmts) == 0 {
		return nil
	}
	n := len(stmts)
	for _, s := range stmts {
		if x, ok := s.(*ir.Loop); ok {
			n += len(t.preloads[x]) + prologs(t.jobs[x])
		}
	}
	out := take(&t.stmts, n)[:0]
	for _, s := range stmts {
		switch x := s.(type) {
		case *ir.Loop:
			out = append(out, t.preloads[x]...)
			body := t.rebuild(x.Body)
			if jobs := t.jobs[x]; len(jobs) > 0 {
				out = t.pipeline(out, x, body, jobs)
				continue
			}
			nl := &take(&t.loops, 1)[0]
			*nl = *x
			nl.Body = body
			out = append(out, nl)
		case ir.If:
			out = append(out, ir.If{Cond: x.Cond, Then: t.rebuild(x.Then), Else: t.rebuild(x.Else)})
		default:
			out = append(out, s)
		}
	}
	return out
}

// take cuts the next n entries off an arena, capped so that an append to
// them cannot write into the next cut; an arena too short for them is
// replaced.
func take[T any](arena *[]T, n int) []T {
	if cap(*arena)-len(*arena) < n {
		*arena = make([]T, 0, n)
	}
	*arena = (*arena)[:len(*arena)+n]
	return (*arena)[len(*arena)-n : len(*arena) : len(*arena)]
}

// prologs returns how many prolog prefetches pipeline emits for jobs.
func prologs(jobs []job) int {
	n := 0
	for _, j := range jobs {
		if j.kind != locality.Indirect && j.selfStride == 0 {
			n++
		}
	}
	return n
}

// pipeline software-pipelines the jobs along loop l (whose body has
// already been rebuilt) and appends the result to out: prolog block
// prefetches covering the first dist iterations of each stream, then the
// loop, strip-mined once per distinct fetch rate, with steady-state
// prefetch (and bundled release) calls planted at the strip heads.
// Per-iteration jobs (indirect references) are planted at the top of the
// innermost body.
func (t *transform) pipeline(out []ir.Stmt, l *ir.Loop, body []ir.Stmt, jobs []job) []ir.Stmt {
	// The last value l's variable takes, which every hint subscript of
	// its jobs clamps its target to; expression nodes are immutable
	// values, so the hints share it.
	last := ir.SubI(l.Hi, ir.Int(l.Step))

	// Prolog: block prefetches for the pipeline startup, before the loop.
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
		out = append(out, ir.Prefetch{
			Arr:   j.group.Leader.Arr,
			Idx:   t.hintIdx(j.group.Leader, l, l, ir.MinI(start, last)),
			Pages: ir.Int(pages),
		})
	}

	// Distinct strip spans (in loop-variable units), widest first.
	spanOf := func(j job) int64 { return j.stripLen * l.Step }
	var spanBuf [4]int64
	spans := spanBuf[:0]
	for _, j := range jobs {
		if j.stripLen > 1 && !slices.Contains(spans, spanOf(j)) {
			spans = append(spans, spanOf(j))
		}
	}
	slices.SortFunc(spans, func(a, b int64) int { return cmp.Compare(b, a) })

	// Innermost: the original loop variable running over one strip (or
	// the whole range when no strip mining happens), with per-iteration
	// jobs planted first.
	innerBody := make([]ir.Stmt, 0, len(jobs)+len(body))
	for _, j := range jobs {
		switch {
		case j.stripLen != 1:
		case j.selfStride != 0:
			innerBody = append(innerBody, t.selfHint(j))
		case j.pipe != nil && j.pipe != l:
			innerBody = append(innerBody, t.outerHint(j, l))
		default:
			innerBody = append(innerBody, t.steadyState(j, l, last, ir.ISlot{Slot: l.Slot, Name: l.Var}, l.Step))
		}
	}
	innerBody = append(innerBody, body...)

	build := func(lo, hi ir.IExpr, inner []ir.Stmt) ir.Stmt {
		nl := &ir.Loop{Var: l.Var, Slot: l.Slot, Lo: lo, Hi: hi, Step: l.Step}
		nl.Body = inner
		return nl
	}
	if len(spans) == 0 {
		return append(out, build(l.Lo, l.Hi, innerBody))
	}

	// Nest strip loops from widest (outermost) to narrowest. Each strip
	// level gets a fresh loop variable; the jobs firing at that rate are
	// planted at its head, ahead of the level nested in it.
	curLo, curHi := l.Lo, l.Hi
	type level struct {
		v      ir.ISlot
		span   int64
		lo, hi ir.IExpr
		body   []ir.Stmt
	}
	var levelBuf [4]level
	levels := levelBuf[:0]
	for d, span := range spans {
		v := t.out.NewLoopVar(l.Var + strconv.Itoa(d))
		body := make([]ir.Stmt, 0, len(jobs)+1) // the hints of its jobs, then the level it holds
		for _, j := range jobs {
			if j.stripLen > 1 && spanOf(j) == span {
				body = append(body, t.steadyState(j, l, last, v, l.Step))
			}
		}
		levels = append(levels, level{v: v, span: span, lo: curLo, hi: curHi, body: body})
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
		sl := &ir.Loop{Var: lv.v.Name, Slot: lv.v.Slot, Lo: lv.lo, Hi: lv.hi, Step: lv.span}
		sl.Body = append(lv.body, stmt)
		stmt = sl
	}
	return append(out, stmt)
}

// steadyState emits the strip-head (or per-iteration) prefetch for a job,
// issued dist iterations ahead, with the trailing release one strip
// behind bundled into the same call when enabled. The release is guarded
// so the pipeline's first strips do not release live data. last is l's
// last value, which the hint targets clamp to.
//
// Block prefetches always fetch pages forward from their start address,
// so for a negative-stride reference (a backward sweep) the start must be
// the far end of the target strip: the variable offset gains an extra
// strip span minus one step, and the release strip's start is one step
// behind rather than one span.
func (t *transform) steadyState(j job, l *ir.Loop, last ir.IExpr, at ir.ISlot, step int64) ir.Stmt {
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
		Idx:   t.hintIdx(lead, l, l, ir.MinI(target, last)),
		Pages: ir.Int(j.pages),
	}
	if !j.release {
		return pf
	}
	trail := j.group.Trailer
	relOff := span
	if neg {
		relOff = step
	}
	rel := ir.SubI(at, ir.Int(relOff))
	bundled := ir.PrefetchRelease{
		PfArr: pf.Arr, PfIdx: pf.Idx, PfPages: pf.Pages,
		RelArr: trail.Arr, RelIdx: t.hintIdx(trail, l, l, ir.MinI(rel, last)), RelPages: ir.Int(j.pages),
	}
	// if (at >= lo + span) prefetch_release else prefetch
	branches := []ir.Stmt{bundled, pf}
	return ir.If{
		Cond: ir.CmpI{Op: ir.Ge, A: at, B: ir.AddI(l.Lo, ir.Int(span))},
		Then: branches[:1:1],
		Else: branches[1:],
	}
}

// selfHint emits the per-iteration hint for a self-relative stride job:
// the reference's own subscripts with the last dimension advanced by the
// observed stride times the distance — the final one, after the in-flight
// budget, so the hint leads by what the plan reports. The hint path clamps addresses and
// never bounds-checks, so running past the array is safe, and a hint is
// non-binding, so a wrongly predicted stride costs only a wasted fetch.
func (t *transform) selfHint(j job) ir.Stmt {
	lead := j.group.Leader
	idx := take(&t.idx, len(lead.Idx))
	copy(idx, lead.Idx)
	last := len(idx) - 1
	idx[last] = ir.AddI(idx[last], ir.Int(j.selfStride*j.dist))
	return ir.Prefetch{Arr: lead.Arr, Idx: idx, Pages: ir.Int(j.pages)}
}

// outerHint emits the per-iteration hint for an indirect job pipelined
// along an outer driving loop (profile-guided): the subscripts are
// re-evaluated with the outer variable advanced dist iterations (clamped
// to its last value), while the loops between the outer loop and the
// plant point stay live — e.g. x[col[(i+dist)*nz+k]] hinted from the
// (i, k) body when the latency does not fit k's trip count.
func (t *transform) outerHint(j job, plant *ir.Loop) ir.Stmt {
	lead := j.group.Leader
	pipe := j.pipe
	target := ir.AddI(ir.ISlot{Slot: pipe.Slot, Name: pipe.Var}, ir.Int(j.dist*pipe.Step))
	last := ir.SubI(pipe.Hi, ir.Int(pipe.Step))
	return ir.Prefetch{
		Arr:   lead.Arr,
		Idx:   t.hintIdx(lead, pipe, plant, ir.MinI(target, last)),
		Pages: ir.Int(j.pages),
	}
}

// hintIdx builds the subscript list for a hint derived from ref, with the
// pipeline loop pipe's variable replaced by clamped (the target value,
// clamped to the loop's last valid value so indirect loads in the
// subscript stay in bounds) and the variables of loops nested inside the
// plant loop replaced by their lower bounds (their value at the start of
// the target iteration). Loop variables between pipe and plant remain
// live at the plant point and are kept.
func (t *transform) hintIdx(ref *locality.Ref, pipe, plant *ir.Loop, clamped ir.IExpr) []ir.IExpr {
	var buf [8]slotExpr
	repl := append(buf[:0], slotExpr{pipe.Slot, clamped})
	inner := false
	for _, pl := range ref.Path {
		if pl == plant {
			inner = true
			continue
		}
		if inner {
			repl = append(repl, slotExpr{pl.Slot, pl.Lo})
		}
	}
	out := take(&t.idx, len(ref.Idx))
	for i, ix := range ref.Idx {
		out[i], _ = substIExpr(ix, repl)
	}
	return out
}

// slotExpr is one substitution: reads of slot become e.
type slotExpr struct {
	slot int
	e    ir.IExpr
}

// substIExpr replaces slot reads according to repl, recursively applying
// the substitution to the replacement expressions as well (minus the slot
// being replaced, to avoid cycles), and reports whether it replaced any. A
// subtree that reads no replaced slot is returned as it is: expression
// nodes are immutable values, so the result shares it with e.
func substIExpr(e ir.IExpr, repl []slotExpr) (ir.IExpr, bool) {
	switch x := e.(type) {
	case ir.ISlot:
		for i, r := range repl {
			if r.slot == x.Slot {
				// Leave the slot out of the substitution into its own
				// replacement: swap it to the end, recurse on the rest,
				// swap it back.
				n := len(repl) - 1
				repl[i], repl[n] = repl[n], repl[i]
				sub, _ := substIExpr(r.e, repl[:n])
				repl[i], repl[n] = repl[n], repl[i]
				return sub, true
			}
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
