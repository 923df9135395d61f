package profile

import (
	"sort"

	"repro/internal/ir"
)

// strideBuckets is the number of distinct strides tracked per site. The
// array is fixed-size so Access stays allocation-free; codes with more
// distinct strides spill into StrideOther, which only ever makes the
// compiler more conservative.
const strideBuckets = 8

type siteState struct {
	sp       SiteProfile
	strides  [strideBuckets]StridePair
	lastElem int64
	lastEnd  int64
	seen     bool
}

// Recorder accumulates a profile during pass 1. It is pure observation:
// the executor calls Access around each instrumented array access with
// simulated-time and fault-counter snapshots it already has, and the
// recorder never touches the simulation, so a profiling run is
// tick-identical and byte-identical to an uninstrumented one.
type Recorder struct {
	kernel   string
	pageSize int64
	sites    []Site
	st       []siteState
}

// NewRecorder prepares a recorder for one program (which must be the
// exact *ir.Program the executor will run). pageSize is stamped into the
// resulting artifact.
func NewRecorder(p *ir.Program, pageSize int64) *Recorder {
	sites := SitesOf(p)
	r := &Recorder{
		kernel:   p.Name,
		pageSize: pageSize,
		sites:    sites,
		st:       make([]siteState, len(sites)),
	}
	for i := range r.st {
		r.st[i].sp.Key = sites[i].Key
	}
	return r
}

// Sites exposes the canonical site enumeration the recorder was built
// over; the executor uses it to map its compiled access sites to IDs.
func (r *Recorder) Sites() []Site { return r.sites }

// Access records one execution of site id touching linear element elem.
// beginTicks/endTicks are the simulated user-time clock immediately
// before and after the access; faults/minor/hits are the VM's
// fault-class counter deltas across it. Access is on the instrumented
// hot path and must not allocate.
func (r *Recorder) Access(id int, elem int64, beginTicks, endTicks int64, faults, minor, hits int64) {
	s := &r.st[id]
	s.sp.Count++
	s.sp.Faults += faults
	s.sp.MinorFaults += minor
	s.sp.Hits += hits
	if faults > 0 {
		s.sp.StallTicks += endTicks - beginTicks
	}
	if s.seen {
		if faults == 0 && hits == 0 {
			// Fault-free gap: the per-iteration work signal. Stalled gaps
			// would double-count the latency the distance must hide.
			s.sp.InterTicks += endTicks - s.lastEnd
			s.sp.InterN++
		}
		s.noteStride(elem - s.lastElem)
	}
	s.seen = true
	s.lastElem = elem
	s.lastEnd = endTicks
}

func (s *siteState) noteStride(d int64) {
	for i := range s.strides {
		b := &s.strides[i]
		if b.Count == 0 {
			b.Stride, b.Count = d, 1
			return
		}
		if b.Stride == d {
			b.Count++
			return
		}
	}
	s.sp.StrideOther++
}

// Profile finalizes the recording. Every site appears in the artifact —
// a zero-count site records that the reference never executed, which is
// itself signal — with stride buckets sorted by descending count (ties
// by stride) for determinism.
func (r *Recorder) Profile() *Profile {
	p := &Profile{Kernel: r.kernel, PageSize: r.pageSize}
	for i := range r.st {
		s := &r.st[i]
		sp := s.sp
		for _, b := range s.strides {
			if b.Count > 0 {
				sp.Strides = append(sp.Strides, b)
			}
		}
		sort.Slice(sp.Strides, func(a, b int) bool {
			if sp.Strides[a].Count != sp.Strides[b].Count {
				return sp.Strides[a].Count > sp.Strides[b].Count
			}
			return sp.Strides[a].Stride < sp.Strides[b].Stride
		})
		p.Sites = append(p.Sites, sp)
	}
	return p
}
