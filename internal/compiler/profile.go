package compiler

import (
	"repro/internal/hw"
	"repro/internal/ir"
	"repro/internal/locality"
	"repro/internal/profile"
)

// guide matches a recorded execution profile (pass 1) against the
// program being compiled (pass 2). Matching is by stable site key over
// the canonical enumeration, which corresponds 1:1 to the locality
// analysis's reference list; references without a matching record — and
// records matching no reference, e.g. a profile recorded on a different
// kernel — degrade to the static plan and are tallied in mismatches.
type guide struct {
	an         *locality.Analysis
	machine    hw.Params
	byRef      map[*locality.Ref]*profile.SiteProfile
	mismatches int64
}

func newGuide(p *ir.Program, prof *profile.Profile, an *locality.Analysis, machine hw.Params) *guide {
	g := &guide{an: an, machine: machine, byRef: map[*locality.Ref]*profile.SiteProfile{}}
	sites := profile.SitesOf(p)
	if prof.PageSize != machine.PageSize || len(sites) != len(an.Refs) {
		// Recorded on a different memory geometry, or the enumeration is
		// out of sync with the analysis: nothing can be trusted.
		g.mismatches = int64(len(sites) + len(prof.Sites))
		return g
	}
	recs := make(map[string]*profile.SiteProfile, len(prof.Sites))
	for i := range prof.Sites {
		recs[prof.Sites[i].Key] = &prof.Sites[i]
	}
	used := make(map[string]bool, len(sites))
	for i, s := range sites {
		if sp := recs[s.Key]; sp != nil {
			g.byRef[an.Refs[i]] = sp
			used[s.Key] = true
		} else {
			g.mismatches++
		}
	}
	for k := range recs {
		if !used[k] {
			g.mismatches++
		}
	}
	return g
}

// rec returns the profile record for a reference, or nil. Safe on a nil
// guide (static compile).
func (g *guide) rec(r *locality.Ref) *profile.SiteProfile {
	if g == nil {
		return nil
	}
	return g.byRef[r]
}

// groupRec returns the group member whose record carries the group's
// fault signal — the members share one page stream, but only the first
// reference to touch new data takes the faults, and that is not always
// the group leader (count[key[i]]++ reads before it writes). Falls back
// to the leader's record (possibly nil) when no member faulted.
func (g *guide) groupRec(grp *locality.Group) (*locality.Ref, *profile.SiteProfile) {
	if g == nil {
		return grp.Leader, nil
	}
	bestRef, best := grp.Leader, g.rec(grp.Leader)
	for _, m := range grp.Members {
		if sp := g.rec(m); sp != nil && (best == nil || sp.Faults > best.Faults) {
			bestRef, best = m, sp
		}
	}
	return bestRef, best
}

// groupDist is distIters over the group's fault-carrying member.
func (g *guide) groupDist(grp *locality.Group, L *ir.Loop) int64 {
	if g == nil {
		return 0
	}
	r, sp := g.groupRec(grp)
	return g.distItersRec(r, sp, L)
}

// distIters returns the profile-derived prefetch lead distance, in
// iterations of L: the observed mean miss latency divided by the
// observed fault-free time per iteration of L (the per-execution gap of
// the site times the trip counts of the loops between L and the site).
// Zero means the profile has no usable signal for r.
func (g *guide) distIters(r *locality.Ref, L *ir.Loop) int64 {
	if g == nil {
		return 0
	}
	return g.distItersRec(r, g.rec(r), L)
}

func (g *guide) distItersRec(r *locality.Ref, sp *profile.SiteProfile, L *ir.Loop) int64 {
	if sp == nil || sp.Faults == 0 || sp.InterN == 0 {
		return 0
	}
	perInner := sp.AvgInterTicks()
	if perInner < 1 {
		perInner = 1
	}
	mult := int64(1)
	inside := false
	for _, pl := range r.Path {
		if inside {
			if tr, _ := g.an.TripCount(pl); tr > 0 {
				mult *= tr
			}
		}
		if pl == L {
			inside = true
		}
	}
	perL := perInner * mult
	iters := (sp.AvgStallTicks() + perL - 1) / perL
	if iters < 1 {
		iters = 1
	}
	return iters
}

// minStrideFaults and minStrideFrac gate self-relative stride hints: the
// site must have faulted enough for the latency estimate to mean
// anything, and one run-time stride must clearly dominate, or the hints
// would mostly fetch the wrong pages.
const (
	minStrideFaults = 4
	minStrideFrac   = 0.75
)

// contentionHeadroom scales profile-observed stall latencies into
// prefetch distances. The profiling run issues no prefetches, so its
// misses see an idle disk; the prefetching run keeps the disk queue
// busy, roughly doubling the latency each fetch must hide.
const contentionHeadroom = 2

// strideJob builds a self-relative per-iteration hint stream for a
// reference static analysis cannot pipeline at all, when the profile
// shows one dominant run-time stride: each iteration hints the address
// the reference itself will touch dist iterations later. This is the
// profile-guided answer to opaque subscripts (and APPBT-style bounds)
// the paper concedes to demand paging.
func (t *transform) strideJob(g *locality.Group) (job, *ir.Loop, bool) {
	lead := g.Leader
	plant := lead.Innermost()
	if plant == nil {
		return job{}, nil, false
	}
	bestRef, sp := t.guide.groupRec(g)
	if sp == nil || sp.Faults < minStrideFaults {
		return job{}, nil, false
	}
	stride, frac := sp.DominantStride()
	if stride == 0 || frac < minStrideFrac {
		return job{}, nil, false
	}
	dist := t.guide.distItersRec(bestRef, sp, plant) * contentionHeadroom
	if dist < 1 {
		dist = 1
	}
	abs := stride
	if abs < 0 {
		abs = -abs
	}
	// Cap the lead so the hinted address stays within the distance
	// budget's reach of the demand stream.
	elemsPerPage := t.machine.PageSize / ir.ElemSize
	if maxD := t.maxDist * elemsPerPage / abs; maxD >= 1 && dist > maxD {
		dist = maxD
	}
	trip, _ := t.an.TripCount(plant)
	if dist >= trip {
		if trip/2 < 1 {
			return job{}, nil, false
		}
		dist = trip / 2
	}
	j := job{
		group:      g,
		kind:       lead.Kind,
		stripLen:   1,
		pages:      1,
		dist:       dist,
		selfStride: stride,
		profiled:   true,
		arrPages:   (g.Arr.Bytes() + t.machine.PageSize - 1) / t.machine.PageSize,
	}
	return j, plant, true
}
