package exec

import (
	"repro/internal/ir"
	"repro/internal/profile"
)

// profRec wires a profile.Recorder into a recording bytecode compile.
// Each array reference the compiler lowers (kcompiler.access) is matched
// to the recorder's canonical site enumeration by the identity of its
// subscript slice — both were built from the same *ir.Program, so every
// reference node appears in both exactly once, and a recording compile
// lowers every reference exactly once (no span bodies, no fused
// templates). References the enumeration does not know (it mirrors the
// locality analysis, blind spots included) simply run uninstrumented.
type profRec struct {
	rec   *profile.Recorder
	byIdx map[*ir.IExpr][]int // &idx[0] → site IDs, enumeration order
}

func newProfRec(rec *profile.Recorder) *profRec {
	pr := &profRec{rec: rec, byIdx: map[*ir.IExpr][]int{}}
	for _, s := range rec.Sites() {
		if len(s.Idx) == 0 {
			continue
		}
		k := &s.Idx[0]
		pr.byIdx[k] = append(pr.byIdx[k], s.ID)
	}
	return pr
}

// siteFor consumes the site ID for one compiled reference. Structurally
// identical references sharing one subscript node drain the same queue;
// their order within it is immaterial because their keys coincide. A nil
// profRec (an ordinary compile) knows no site.
func (pr *profRec) siteFor(idx []ir.IExpr) (int, bool) {
	if pr == nil || len(idx) == 0 {
		return 0, false
	}
	q := pr.byIdx[&idx[0]]
	if len(q) == 0 {
		return 0, false
	}
	pr.byIdx[&idx[0]] = q[1:]
	return q[0], true
}
