// Package compiler is the prefetching compiler of the paper: it analyzes
// a program's loop nests with the locality analysis, decides which
// references need prefetching and along which loop to software-pipeline
// them, strip-mines loops so that spatial references are prefetched once
// per block of pages rather than once per iteration, schedules prefetches
// a latency-covering distance ahead, converts pipeline prologs into block
// prefetches, and emits release hints for the trailing references of
// streaming groups, bundled with prefetches into single calls.
//
// The output is a transformed copy of the program; the original is left
// untouched, so "original" and "prefetching" versions of an application
// can run side by side, as in the paper's O and P bars.
package compiler

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/hw"
	"repro/internal/ir"
	"repro/internal/locality"
	"repro/internal/profile"
	"repro/internal/stash"
)

// Options configure the pass.
type Options struct {
	// PagesPerFetch is the block size for spatial prefetches ("the number
	// of pages to fetch in a block is a parameter which can be specified
	// to the compiler"; the paper uses 4).
	PagesPerFetch int64

	// Releases enables release-hint insertion for the trailing references
	// of streaming groups in out-of-core nests.
	Releases bool

	// TwoVersionLoops enables the future-work extension of §4.1.1: loops
	// with compile-time-unknown bounds are versioned and the right
	// pipelining level chosen by a run-time bound test. It is modeled by
	// letting the analysis see run-time bounds, which yields exactly the
	// code the correct version would contain.
	TwoVersionLoops bool

	// DefaultEstTrip is the assumed trip count for unknown loop bounds.
	DefaultEstTrip int64

	// Profile, if non-nil, feeds a recorded execution profile back into
	// scheduling (pass 2 of the two-pass mode): observed miss latencies
	// and per-iteration times replace the static hw.AvgPageRead distance
	// formula, indirect references may pipeline along outer driving
	// loops, and references static analysis cannot cover (short-trip
	// dense loops, opaque subscripts with a dominant run-time stride)
	// gain hints. References that do not match the profile keep their
	// static plan and are counted in Result.ProfileMismatches. With a
	// nil Profile the output is bit-identical to the static compiler.
	Profile *profile.Profile
}

// DefaultOptions mirror the paper's configuration.
func DefaultOptions() Options {
	return Options{PagesPerFetch: 4, Releases: true, DefaultEstTrip: 1024}
}

// PlanEntry describes what the compiler decided for one locality group.
type PlanEntry struct {
	Array    string
	Kind     locality.RefKind
	Pipeline string // loop variable prefetches pipeline along; "" if none
	StripLen int64  // iterations between prefetches
	Pages    int64  // pages per prefetch call
	Dist     int64  // lead distance, iterations of the pipeline loop
	Release  bool
	Covered  bool
	Profiled bool // true when the profile changed this entry's decision
}

// Result is the compiler's output.
type Result struct {
	Prog *ir.Program
	Plan []PlanEntry

	// ProfileMismatches counts reference sites without a matching record
	// and records without a matching site when Options.Profile was set
	// (e.g. a profile recorded on another kernel); mismatched sites keep
	// their static plan.
	ProfileMismatches int64
}

// PlanString renders the plan as a table for the compiler driver.
func (r *Result) PlanString() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-9s %-9s %9s %6s %8s %8s\n",
		"array", "kind", "pipeline", "strip-len", "pages", "distance", "release")
	for _, e := range r.Plan {
		pipe := e.Pipeline
		if !e.Covered {
			pipe = "(none)"
		}
		fmt.Fprintf(&b, "%-10s %-9s %-9s %9d %6d %8d %8v\n",
			e.Array, e.Kind, pipe, e.StripLen, e.Pages, e.Dist, e.Release)
	}
	return b.String()
}

// job is one planned prefetch stream attached to a pipeline loop.
type job struct {
	group    *locality.Group
	kind     locality.RefKind
	stripLen int64 // iterations of the pipeline loop per prefetch
	pages    int64 // pages per prefetch
	dist     int64 // lead distance in iterations (multiple of stripLen)
	release  bool
	at       *ir.Loop // the loop the job is attached to
	top      *ir.Loop // outermost enclosing loop (budget domain)

	// Profile-guided extensions (all zero in a static compile):
	// pipe, when non-nil, is an outer driving loop the distance counts
	// iterations of while the hint itself stays planted per-iteration at
	// the attach loop (indirect refs whose latency cannot fit the inner
	// trip count). selfStride, when non-zero, emits self-relative hints
	// at ref.Idx + selfStride·dist elements (opaque refs with a dominant
	// observed stride; dist as the budget pass leaves it). arrPages caps
	// the in-flight page estimate for indirect streams, whose distinct
	// target pages cannot exceed the array. preloadPages, when non-zero,
	// block-prefetches that many pages of the target array before the
	// top-level nest: a profile
	// whose fault count is on the order of the array's page count shows
	// cold misses over a small footprint, which cluster early (random
	// keys touch every page almost immediately) where no steady-state
	// lead distance can reach them. profiled marks the job for the plan
	// and vacuity guards.
	pipe         *ir.Loop
	selfStride   int64
	arrPages     int64
	preloadPages int64
	profiled     bool
}

// inFlightPages returns how many pages this job keeps in flight.
func (j *job) inFlightPages() int64 {
	if j.stripLen == 0 {
		return 0
	}
	n := j.dist / j.stripLen * j.pages
	if j.arrPages > 0 && n > j.arrPages {
		n = j.arrPages
	}
	return n
}

// Compile runs the pass. The program must already be resolved against the
// machine's page size (Compile resolves it if not).
func Compile(p *ir.Program, machine hw.Params, opt Options) (*Result, error) {
	if opt.PagesPerFetch <= 0 {
		opt.PagesPerFetch = 4
	}
	if opt.DefaultEstTrip <= 0 {
		opt.DefaultEstTrip = 1024
	}
	// The lead distance is capped, in pages per reference, so prefetched
	// data cannot flood memory.
	maxDistPages := max(machine.Frames()/8, opt.PagesPerFetch)
	if !p.Resolved() {
		if err := p.Resolve(machine.PageSize); err != nil {
			return nil, err
		}
	}

	// The two-version extension: analysis sees run-time bounds (the
	// emitted code corresponds to the version the run-time test selects).
	// The analysis reads Param.Known whenever it binds a slot, so the
	// parameters stay known until the pass is done with it.
	restore := []*ir.Param{}
	if opt.TwoVersionLoops {
		for _, prm := range p.Params {
			if !prm.Known {
				prm.Known = true
				restore = append(restore, prm)
			}
		}
	}
	defer func() {
		for _, prm := range restore {
			prm.Known = false
		}
	}()
	an := locality.Analyze(p, machine.PageSize, opt.DefaultEstTrip)
	defer an.Release()

	t := tstash.Take()
	defer t.release()
	*t = transform{an: an, machine: machine, opt: opt, maxDist: maxDistPages, out: cloneProgram(p), jobs: t.jobs}
	res := &Result{Prog: t.out}
	if opt.Profile != nil {
		t.guide = newGuide(p, opt.Profile, an, machine)
		res.ProfileMismatches = t.guide.mismatches
	}
	t.plan(res)
	t.budget(res)
	t.sizeArenas(p.Body)
	t.genPreloads()
	t.out.Body = t.rebuild(p.Body)
	if t.err != nil {
		return nil, t.err
	}
	return res, nil
}

// cloneProgram copies the program shell; arrays and parameters (and their
// slots) are shared, statement bodies are rebuilt by the transform.
func cloneProgram(p *ir.Program) *ir.Program {
	out := *p
	out.Name = p.Name + "+pf"
	return &out
}

// plan turns the analysis groups into jobs hanging off their pipeline
// loops, and fills in the human-readable plan. Groups that would emit a
// prefetch for the same address stream at the same loop (e.g. the read
// and write halves of count[key[i]]++) are deduplicated.
func (t *transform) plan(res *Result) {
	// A stream is its attach and pipeline loops, its array and leading
	// subscripts — compared by their printed text, printed into one buffer
	// each side when all else matches — and its strip length and self
	// stride.
	text, other := t.bufs[:0:128], t.bufs[128:128]
	t.jobs = stash.Grow(t.jobs, len(t.an.Groups))[:0]
	res.Plan = make([]PlanEntry, 0, len(t.an.Groups))
	for i := range t.an.Groups {
		g := &t.an.Groups[i]
		lead := g.Leader
		entry := PlanEntry{Array: g.Arr.Name, Kind: lead.Kind}
		var (
			j  job
			at *ir.Loop
			ok bool
		)
		if L := t.an.PipelineLoop(lead); L != nil {
			j, at, ok = t.schedule(g, L)
		}
		if !ok && t.guide != nil {
			// Static analysis gave up (no pipeline loop, or no distance
			// fits any trip count) — the profile may still show a
			// prefetchable run-time stride.
			j, at, ok = t.strideJob(g)
		}
		if !ok {
			// §2.3 / §4.1.1: the lead distance does not fit the trip
			// count of any analyzable enclosing loop — the software
			// pipeline never gets started and the reference is missed.
			// This is the compiler mistake that costs APPBT its coverage
			// when inner bounds are only known at run time.
			res.Plan = append(res.Plan, entry)
			continue
		}
		entry.Covered = true
		entry.Pipeline = at.Var
		if j.pipe != nil {
			entry.Pipeline = j.pipe.Var
		}
		entry.StripLen = j.stripLen
		entry.Pages = j.pages
		entry.Dist = j.dist
		entry.Release = j.release
		entry.Profiled = j.profiled
		res.Plan = append(res.Plan, entry)

		j.at = at
		if len(g.Leader.Path) > 0 {
			j.top = g.Leader.Path[0]
		}
		// The jobs at one loop stay together, in plan order: j goes after
		// the last at its loop, unless another group already prefetches
		// its stream there (e.g. the write half of count[key[i]]++). A
		// profile-guided schedule supersedes a static duplicate: the group
		// carrying the fault evidence is not always the one planned first.
		pos, printed := len(t.jobs), false
		for k := range t.jobs {
			old := &t.jobs[k]
			if old.at != at {
				continue
			}
			pos = k + 1
			if old.pipe != j.pipe || old.group.Arr != g.Arr || old.stripLen != j.stripLen || old.selfStride != j.selfStride {
				continue
			}
			if !printed {
				text, printed = ir.AppendIndex(text[:0], g.Leader.Idx), true
			}
			if other = ir.AppendIndex(other[:0], old.group.Leader.Idx); string(other) == string(text) {
				if j.profiled && !old.profiled {
					*old = j
				}
				pos = -1
				break
			}
		}
		if pos >= 0 {
			t.jobs = slices.Insert(t.jobs, pos, j)
		}
	}
}

// jobsAt returns the jobs attached to loop l, which plan keeps together.
func (t *transform) jobsAt(l *ir.Loop) []job {
	i := 0
	for i < len(t.jobs) && t.jobs[i].at != l {
		i++
	}
	n := i
	for n < len(t.jobs) && t.jobs[n].at == l {
		n++
	}
	return t.jobs[i:n]
}

// budget enforces a global memory budget on prefetch lead distances: the
// streams that run concurrently (those under the same top-level loop
// nest) may together keep at most a quarter of memory in flight, or
// prefetched pages would evict each other before use. Each stream keeps
// at least one strip of lead.
func (t *transform) budget(res *Result) {
	limit := t.machine.Frames() / 4
	if limit < t.opt.PagesPerFetch {
		limit = t.opt.PagesPerFetch
	}
	// One domain a top loop: the first job under it totals the domain and
	// scales every job in it.
	for i := range t.jobs {
		top := t.jobs[i].top
		if slices.IndexFunc(t.jobs[:i], func(j job) bool { return j.top == top }) >= 0 {
			continue
		}
		var total int64
		for k := i; k < len(t.jobs); k++ {
			if t.jobs[k].top == top {
				total += t.jobs[k].inFlightPages()
			}
		}
		if total <= limit {
			continue
		}
		factor := float64(limit) / float64(total)
		for k := i; k < len(t.jobs); k++ {
			if j := &t.jobs[k]; j.top == top {
				strips := j.dist / j.stripLen
				scaled := int64(float64(strips) * factor)
				if scaled < 1 {
					scaled = 1
				}
				j.dist = scaled * j.stripLen
			}
		}
	}
	// Reflect the final distances in the plan (entries are matched by
	// array name and strip length; close enough for reporting).
	for i := range res.Plan {
		e := &res.Plan[i]
		for k := range t.jobs {
			j := &t.jobs[k]
			if j.group.Arr.Name == e.Array && j.stripLen == e.StripLen && j.dist < e.Dist {
				e.Dist = j.dist
			}
		}
	}
}

// schedule plans one group's prefetch stream. It starts at the locality
// analysis's pipeline loop and, when the lead distance would exceed the
// loop's trip count (the pipeline could never get started), moves outward
// to the next enclosing loop the reference varies with — exactly the
// paper's "first surrounding loop" rule applied transitively. It reports
// failure only when no enclosing analyzable loop can host the pipeline.
func (t *transform) schedule(g *locality.Group, first *ir.Loop) (job, *ir.Loop, bool) {
	lead := g.Leader
	ps := t.machine.PageSize

	// Build the outward candidate list starting at the analysis's choice.
	var buf [8]*ir.Loop
	candidates := buf[:0]
	started := false
	for i := len(lead.Path) - 1; i >= 0; i-- {
		l := lead.Path[i]
		if l == first {
			started = true
		}
		if !started {
			continue
		}
		if lead.Kind == locality.Indirect {
			// Indirect prefetch addresses must be generated where the
			// index value is available: statically, only the innermost
			// driving loop can host them (Figure 2's a[b[i+dist]]). With
			// a profile, outer driving loops are candidates too — the
			// hint stays planted where the index is computed, but the
			// distance counts iterations of the outer loop, which is how
			// a latency larger than the inner trip gets hidden.
			if _, sp := t.guide.groupRec(g); slices.Contains(lead.IndirectSlots, l.Slot) && (len(candidates) == 0 || sp != nil) {
				candidates = append(candidates, l)
			}
		} else if lead.Coeff(l.Slot) != 0 {
			candidates = append(candidates, l)
		}
	}

	for ci, L := range candidates {
		trip, _ := t.an.TripCount(L)
		j := job{group: g, kind: lead.Kind}
		if lead.Kind == locality.Indirect {
			j.stripLen = 1
			j.pages = 1
			j.dist = t.latencyIters(L, 1)
			if d := t.guide.groupDist(g, L); d > 0 {
				// Observed stall over observed fault-free work per
				// iteration replaces the static model: the model's
				// operation-count estimate can run orders of magnitude off
				// in either direction, and an oversized lead cycles a small
				// indirect target through memory before use. The headroom
				// factor covers the disk contention the profiling run
				// (which issues no prefetches) cannot see.
				j.dist = d * contentionHeadroom
				j.profiled = true
			}
			if j.dist >= trip {
				if ci+1 < len(candidates) {
					continue // pipeline across the next loop out
				}
				if trip/2 >= 1 {
					j.dist = trip / 2 // degrade: hide part of the latency
				} else {
					return job{}, nil, false
				}
			}
			if inner := lead.Innermost(); inner != L {
				// Outer-loop pipeline: plant per-iteration hints at the
				// innermost loop (all subscript variables live there) with
				// the distance applied to L's variable.
				j.pipe = L
				j.profiled = true
				t.sizeIndirect(g, &j)
				return j, inner, true
			}
			if j.profiled {
				t.sizeIndirect(g, &j)
			}
		} else {
			strideB := lead.StrideBytes(L)
			if strideB < 0 {
				strideB = -strideB
			}
			j.stripLen = t.opt.PagesPerFetch * ps / strideB
			if j.stripLen < 1 {
				j.stripLen = 1
			}
			j.pages = (j.stripLen*strideB + ps - 1) / ps
			j.dist = t.latencyIters(L, j.stripLen)
			if d := t.guide.groupDist(g, L); d > 0 {
				// Observed latency over observed per-iteration work with
				// contention headroom, rounded up to whole strips; the
				// budget cap below applies to it the same as to the
				// static distance.
				d *= contentionHeadroom
				j.dist = (d + j.stripLen - 1) / j.stripLen * j.stripLen
				j.profiled = true
			}
			// Cap the lead distance by the memory budget.
			if maxStrips := t.maxDist / j.pages; maxStrips >= 1 {
				if lim := maxStrips * j.stripLen; j.dist > lim {
					j.dist = lim
				}
			}
			if j.dist >= trip {
				if ci+1 < len(candidates) {
					continue
				}
				if trip > j.stripLen {
					j.dist = (trip - 1) / j.stripLen * j.stripLen // partial hiding
				} else if _, sp := t.guide.groupRec(g); sp != nil && sp.Faults > 0 && trip/2 >= 1 {
					// The whole loop fits one strip, so static scheduling
					// gives up — but the profile says the reference
					// faults. Shrink the strip to half the trip count:
					// smaller blocks, but the pipeline starts.
					j.stripLen = trip / 2
					j.pages = (j.stripLen*strideB + ps - 1) / ps
					j.dist = j.stripLen
					j.profiled = true
				} else {
					return job{}, nil, false
				}
			}
			j.release = t.opt.Releases && t.releasable(g, L)
		}
		return j, L, true
	}
	return job{}, nil, false
}

// sizeIndirect fills a profiled indirect job's footprint fields: the
// in-flight cap, and — when the profile shows cold misses over a target
// array comparable to the prefetch budget — a whole-array preload. A
// fault count on the order of the array's page count means each page
// missed about once; with randomized keys those misses land in the
// nest's first iterations, before any steady-state lead can cover them.
func (t *transform) sizeIndirect(g *locality.Group, j *job) {
	ps := t.machine.PageSize
	j.arrPages = (g.Arr.Bytes() + ps - 1) / ps
	_, sp := t.guide.groupRec(g)
	if sp == nil {
		return
	}
	lim := t.machine.Frames() / 4
	if j.arrPages <= 2*lim && sp.Faults <= 2*j.arrPages {
		j.preloadPages = j.arrPages
		if j.preloadPages > lim {
			j.preloadPages = lim
		}
	}
}

// genPreloads turns the jobs' preload requests into block prefetches
// planted before their top-level nests, one per (nest, array).
func (t *transform) genPreloads() {
	type nestArray struct {
		top *ir.Loop
		arr *ir.Array
	}
	seen := map[nestArray]bool{}
	for _, j := range t.jobs {
		if j.preloadPages == 0 || j.top == nil {
			continue
		}
		key := nestArray{j.top, j.group.Arr}
		if seen[key] {
			continue
		}
		seen[key] = true
		idx := take(&t.idx, len(j.group.Leader.Idx))
		for i := range idx {
			idx[i] = ir.Int(0)
		}
		if t.preloads == nil {
			t.preloads = map[*ir.Loop][]ir.Stmt{}
		}
		t.preloads[j.top] = append(t.preloads[j.top], ir.Prefetch{
			Arr:   j.group.Arr,
			Idx:   idx,
			Pages: ir.Int(j.preloadPages),
		})
	}
}

// sizeArenas sizes the arenas the rebuilt program is cut from: t.idx
// holds every subscript list the jobs' hints take (a prolog's, a
// steady-state prefetch's or a per-iteration hint's, a bundled release's
// and a preload's), t.stmts every statement list rebuild copies with the
// preloads and prologs it adds, and t.loops every loop it copies.
func (t *transform) sizeArenas(body []ir.Stmt) {
	idx, stmts, loops := 0, ir.CountStmts(body), 0
	stmts += prologs(t.jobs)
	for _, j := range t.jobs {
		lists := 1
		if j.kind != locality.Indirect && j.selfStride == 0 {
			lists++ // prolog
		}
		if j.release {
			lists++
		}
		if j.preloadPages != 0 {
			lists++
			stmts++
		}
		idx += lists * len(j.group.Leader.Idx)
	}
	ir.WalkStmts(body, func(s ir.Stmt) {
		if _, ok := s.(*ir.Loop); ok {
			loops++
		}
	})
	t.idx = make([]ir.IExpr, 0, idx)
	t.stmts = make([]ir.Stmt, 0, stmts)
	t.loops = make([]ir.Loop, 0, loops)
}

// latencyIters returns the prefetch lead distance, in pipeline-loop
// iterations rounded up to a whole number of strips: enough iterations
// that the work between issue and use covers the full fault latency.
func (t *transform) latencyIters(L *ir.Loop, stripLen int64) int64 {
	iterOps := t.an.EstimateIterOps(L)
	latency := int64(t.machine.AvgPageRead() + t.machine.FaultServiceTime)
	perIter := iterOps * int64(t.machine.OpTime)
	if perIter < 1 {
		perIter = 1
	}
	iters := (latency + perIter - 1) / perIter
	if iters < 1 {
		iters = 1
	}
	strips := (iters + stripLen - 1) / stripLen
	return strips * stripLen
}

// releasable reports whether a group's trailing reference should carry a
// release: the pipeline loop is a top-level streaming pass (nothing
// outside it can re-reference the data soon) and the stream is
// out-of-core, so the pages are dead once the trailing reference passes.
// This conservative rule matches the paper's "not aggressive" release
// insertion, which produced significant releases only for the streaming
// applications (BUK, EMBAR).
func (t *transform) releasable(g *locality.Group, L *ir.Loop) bool {
	lead := g.Leader
	if len(lead.Path) == 0 || lead.Path[0] != L {
		return false
	}
	return t.an.FootprintUpTo(lead, L) > t.machine.MemoryBytes/2
}

// transform carries the rebuild state.
type transform struct {
	an       *locality.Analysis
	machine  hw.Params
	opt      Options
	maxDist  int64 // lead-distance cap, pages per reference
	out      *ir.Program
	jobs     []job                  // every loop's jobs, one loop's together (plan)
	preloads map[*ir.Loop][]ir.Stmt // whole-array prologs, keyed by top loop; nil without any
	guide    *guide                 // non-nil under Options.Profile
	idx      []ir.IExpr             // the arenas the rebuilt program is cut from (sizeArenas)
	stmts    []ir.Stmt
	loops    []ir.Loop
	err      error
	bufs     [256]byte // plan's two subscript texts
}

// tstash keeps a transform between compiles for its jobs slice, the one
// table of the pass that neither the result nor the program keeps.
var tstash = stash.New(func(t *transform) int { return cap(t.jobs) })

// release empties t, keeping its jobs slice, and puts it back in the stash.
func (t *transform) release() {
	*t = transform{jobs: t.jobs[:0]}
	tstash.Put(t)
}
