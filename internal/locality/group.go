package locality

import (
	"cmp"
	"slices"

	"repro/internal/ir"
)

// group clusters dense references with group locality. References belong
// to the same group when they name the same array from the same loop nest
// with identical coefficients and constants within two pages of each
// other (a stencil's a[i-1], a[i], a[i+1] cluster; unrelated slices do
// not). Indirect and opaque references form singleton groups, which come
// first, in reference order; the dense groups follow, their buckets in
// first-seen order. Every group's members are cut from one slice.
func (a *Analysis) group() {
	members := make([]*Ref, 0, len(a.Refs))
	a.Groups = make([]Group, 0, len(a.Refs))
	for i := range a.Refs {
		if r := &a.Refs[i]; r.Kind != Dense {
			members = append(members, r)
			a.Groups = append(a.Groups, makeGroup(members[len(members)-1:]))
		}
	}
	window := 2 * a.PageSize / ir.ElemSize
next:
	for i := range a.Refs {
		r := &a.Refs[i]
		if r.Kind != Dense {
			continue
		}
		for k := range i {
			if sameBucket(&a.Refs[k], r) {
				continue next // the bucket r belongs to is made
			}
		}
		b := len(members)
		for j := i; j < len(a.Refs); j++ {
			if q := &a.Refs[j]; sameBucket(q, r) {
				members = append(members, q)
			}
		}
		refs := members[b:]
		slices.SortStableFunc(refs, func(x, y *Ref) int { return cmp.Compare(x.Const, y.Const) })
		start := 0
		for k := 1; k <= len(refs); k++ {
			if k == len(refs) || refs[k].Const-refs[k-1].Const > window {
				a.Groups = append(a.Groups, makeGroup(refs[start:k]))
				start = k
			}
		}
	}
}

// sameBucket reports whether dense references q and r name the same
// array from the same innermost loop with identical coefficients.
func sameBucket(q, r *Ref) bool {
	return q.Kind == Dense && q.Arr == r.Arr && q.Innermost() == r.Innermost() && slices.Equal(q.Terms, r.Terms)
}

// makeGroup makes the group of members, which must be sorted by Const
// ascending, and caps them so that nothing appends into the next group's.
func makeGroup(members []*Ref) Group {
	members = members[:len(members):len(members)]
	// With a positive stride the largest constant touches new data first
	// (the leading reference); the smallest constant is the last to touch
	// it (the trailing reference, the address to release). Negative
	// strides flip this; our kernels' strides are positive (backward
	// sweeps are expressed with reversed index arithmetic), so positive
	// orientation is used.
	return Group{Arr: members[0].Arr, Members: members, Leader: members[len(members)-1], Trailer: members[0]}
}

// StrideBytes returns a ref's byte stride per iteration of loop l (may be
// negative or zero).
func (r *Ref) StrideBytes(l *ir.Loop) int64 {
	return r.Coeff(l.Slot) * l.Step * ir.ElemSize
}

// FootprintUpTo returns the number of distinct bytes the ref touches
// during one complete execution of loop l (and everything inside it),
// using compile-time trip counts and the default estimate for unknown
// bounds.
func (a *Analysis) FootprintUpTo(r *Ref, l *ir.Loop) int64 {
	fp := int64(ir.ElemSize)
	for i := len(r.Path) - 1; i >= 0; i-- {
		cur := r.Path[i]
		trip, _ := a.TripCount(cur)
		s := r.StrideBytes(cur)
		if s < 0 {
			s = -s
		}
		if s > 0 {
			if f := s * trip; f > fp {
				fp = f
			}
		}
		if cur == l {
			break
		}
	}
	return fp
}

// PipelineLoop picks the loop along which prefetches for a dense or
// opaque ref should be software-pipelined: the innermost enclosing loop
// whose full execution touches more than a page of the array (§2.3). For
// opaque refs only loops with a whole-page affine stride qualify (the
// residual is assumed bounded by that stride). It returns nil when no
// loop qualifies — the reference is not worth prefetching.
func (a *Analysis) PipelineLoop(r *Ref) *ir.Loop {
	switch r.Kind {
	case Dense, Opaque:
		// Opaque refs are handled through their known affine part: the
		// residual (bit-twiddled inner indices, unknown outer dimensions)
		// is assumed bounded by the affine strides. For an FFT row this
		// picks the row loop; for a matrix with unknown leading
		// dimensions it picks the innermost stride-1 loop — which is
		// exactly the paper's documented mistake when that loop's real
		// trip count turns out to be small.
		for i := len(r.Path) - 1; i >= 0; i-- {
			l := r.Path[i]
			if a.FootprintUpTo(r, l) > a.PageSize {
				// The qualifying loop must itself advance through the
				// array; footprints only grow at loops with non-zero
				// stride, so scan outward to the first such loop.
				for j := i; j >= 0; j-- {
					if r.Coeff(r.Path[j].Slot) != 0 {
						return r.Path[j]
					}
				}
				return nil
			}
		}
	case Indirect:
		// Prefetches are driven per-iteration of the innermost loop that
		// feeds the indirect subscript.
		for i := len(r.Path) - 1; i >= 0; i-- {
			if slices.Contains(r.IndirectSlots, r.Path[i].Slot) {
				return r.Path[i]
			}
		}
	}
	return nil
}

// EstimateIterOps estimates the machine operations executed by one
// iteration of loop l, the quantity the scheduler divides into the fault
// latency to choose a prefetch distance. Inner loops multiply by their
// (estimated) trip counts.
func (a *Analysis) EstimateIterOps(l *ir.Loop) int64 {
	ops := a.estimateStmts(l.Body)
	if ops < 1 {
		ops = 1
	}
	return ops
}

func (a *Analysis) estimateStmts(stmts []ir.Stmt) int64 {
	var ops int64
	for _, s := range stmts {
		switch x := s.(type) {
		case *ir.Loop:
			trip, _ := a.TripCount(x)
			ops += trip * (a.estimateStmts(x.Body) + 2)
		case ir.AssignF:
			ops += exprOpsF(x.RHS) + int64(len(x.Idx))*2 + 2
		case ir.AssignI:
			ops += exprOpsI(x.RHS) + int64(len(x.Idx))*2 + 2
		case ir.SetScalarF:
			ops += exprOpsF(x.RHS) + 1
		case ir.SetScalarI:
			ops += exprOpsI(x.RHS) + 1
		case ir.If:
			t := a.estimateStmts(x.Then)
			e := a.estimateStmts(x.Else)
			if e > t {
				t = e
			}
			ops += t + 2
		case ir.Prefetch, ir.Release, ir.PrefetchRelease:
			ops += 8
		}
	}
	return ops
}

func exprOpsF(e ir.FExpr) int64 {
	switch x := e.(type) {
	case ir.FConst:
		return 0
	case ir.FScalar:
		return 1
	case ir.FLoad:
		return int64(len(x.Idx))*2 + 2
	case ir.FBin:
		return exprOpsF(x.A) + exprOpsF(x.B) + 1
	case ir.FNeg:
		return exprOpsF(x.X) + 1
	case ir.FromInt:
		return exprOpsI(x.X) + 1
	case ir.FCall:
		var n int64 = 20
		for _, a := range x.Args {
			n += exprOpsF(a)
		}
		return n
	}
	return 1
}

func exprOpsI(e ir.IExpr) int64 {
	switch x := e.(type) {
	case ir.IConst:
		return 0
	case ir.ISlot:
		return 1
	case ir.IBin:
		return exprOpsI(x.A) + exprOpsI(x.B) + 1
	case ir.ILoad:
		return int64(len(x.Idx))*2 + 2
	}
	return 1
}
