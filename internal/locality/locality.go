// Package locality implements the compiler's locality analysis: the part
// of Mowry's prefetching algorithm that was retargeted in the paper from
// cache lines and cache capacity to pages and main-memory capacity. Given
// a loop nest it collects the array references, decomposes their
// subscripts into affine form over the enclosing loop variables, clusters
// references with group locality (same array, same coefficients, nearby
// constants), and for each group leader decides along which loop
// prefetches should be software-pipelined — the innermost enclosing loop
// whose full execution touches more than a page of the array.
package locality

import (
	"repro/internal/ir"
	"repro/internal/stash"
)

// RefKind classifies a reference for prefetch planning.
type RefKind uint8

const (
	// Dense: the linearized subscript is affine in enclosing loop
	// variables and compile-time constants.
	Dense RefKind = iota
	// Indirect: the subscript contains an array load (a[b[i]]).
	Indirect
	// Opaque: the subscript has non-affine residual terms (e.g. the
	// bit-twiddled indices of an FFT butterfly). The affine part, if any,
	// is still usable: the residual is assumed bounded by the smallest
	// affine stride, which holds for blocked codes like FFT rows.
	Opaque
)

func (k RefKind) String() string {
	switch k {
	case Dense:
		return "dense"
	case Indirect:
		return "indirect"
	default:
		return "opaque"
	}
}

// Ref is one array reference with its analysis results.
type Ref struct {
	Arr     *ir.Array
	Idx     []ir.IExpr
	IsWrite bool
	Path    []*ir.Loop // enclosing loops, outermost first
	Kind    RefKind

	// Affine decomposition of the linearized subscript, in elements:
	// Σ Coeff·slot over Terms, plus Const. Terms are sorted by slot and
	// none has a zero coefficient.
	Terms []ir.Term
	Const int64 // known constant part (0 if unknown)

	// For Indirect refs: the loop slots the indirect load itself varies
	// with (the i of b[i]), used to pick the prefetch-driving loop.
	IndirectSlots []int
}

// Coeff returns the coefficient of slot in the ref's subscript (0 when
// the subscript does not vary with it).
func (r *Ref) Coeff(slot int) int64 {
	for _, t := range r.Terms {
		if t.Slot == slot {
			return t.Coeff
		}
	}
	return 0
}

// Innermost returns the innermost enclosing loop, or nil.
func (r *Ref) Innermost() *ir.Loop {
	if len(r.Path) == 0 {
		return nil
	}
	return r.Path[len(r.Path)-1]
}

// Analysis is the result of analyzing a program.
type Analysis struct {
	Prog   *ir.Program
	Refs   []Ref
	Groups []Group // Members, Leader and Trailer point into Refs

	// PageSize is the memory-model page size (the paper's analogue of
	// the cache line size in the original algorithm).
	PageSize int64

	// DefaultEstTrip is assumed for loops whose trip count is not known
	// at compile time ("the compiler assumes large bounds").
	DefaultEstTrip int64

	// Scratch forms, reused so that decomposing allocates nothing once
	// they have grown: decompose fills lo, TripCount both bounds. They
	// make an Analysis unsafe for concurrent use.
	lo, hi ir.Affine

	// The arenas every Ref's Terms and IndirectSlots are cut from, each
	// cut a full slice expression: an append that moves an arena leaves
	// the cuts made earlier on the old array, which nothing writes again.
	terms   []ir.Term
	slots   []int
	members []*Ref // every group's members, cut in group order
}

// Group is a set of references with group locality: same array, same
// coefficients, constants within a page of each other. The Leader is the
// first reference to touch new data (largest constant for a positive
// stride); the Trailer is the last (smallest constant) and is the address
// to release.
type Group struct {
	Arr     *ir.Array
	Members []*Ref // sorted by Const ascending
	Leader  *Ref
	Trailer *Ref
}

// Analyze runs the analysis over a program's body. The program must be
// resolved (array layouts fixed). defaultEstTrip controls the assumed
// trip count of loops with unknown bounds; pass 0 for the standard 1024.
// The analysis is cut from the storage the last Release handed back, if
// no other analysis has taken it since.
func Analyze(p *ir.Program, pageSize, defaultEstTrip int64) *Analysis {
	if defaultEstTrip <= 0 {
		defaultEstTrip = 1024
	}
	a := astash.Take()
	a.Prog, a.PageSize, a.DefaultEstTrip = p, pageSize, defaultEstTrip
	ir.WalkRefs(p.Body, a.addRef)
	a.group()
	return a
}

// astash keeps the storage of a released analysis for the next Analyze.
var astash = stash.New(func(a *Analysis) int { return cap(a.Refs) })

// Release empties a, keeping its storage, and hands it to a later Analyze:
// the caller is done with a and with every Ref and Group it read from it.
// A caller that keeps its analysis simply does not release it.
func (a *Analysis) Release() {
	*a = Analysis{Refs: a.Refs[:0], Groups: a.Groups[:0], lo: a.lo, hi: a.hi,
		terms: a.terms[:0], slots: a.slots[:0], members: a.members[:0]}
	astash.Put(a)
}

// known binds the parameters the compiler may see to their values. It
// reads Param.Known when it is called, so a caller that marks parameters
// known for an analysis keeps them marked for as long as it uses it.
func (a *Analysis) known(slot int) (int64, bool) {
	if prm := a.Prog.Param(slot); prm != nil && prm.Known {
		return prm.Val, true
	}
	return 0, false
}

func (a *Analysis) addRef(arr *ir.Array, idx []ir.IExpr, isWrite bool, path []*ir.Loop) {
	a.Refs = append(a.Refs, Ref{Arr: arr, Idx: idx, IsWrite: isWrite, Path: path})
	a.decompose(&a.Refs[len(a.Refs)-1])
}
