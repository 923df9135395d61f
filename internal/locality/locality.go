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

	// Affine decomposition of the linearized subscript, in elements.
	Coeffs map[int]int64 // loop slot → coefficient
	Const  int64         // known constant part (0 if unknown)

	// For Indirect refs: the loop slots the indirect load itself varies
	// with (the i of b[i]), used to pick the prefetch-driving loop.
	IndirectSlots map[int]bool
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
	Known  map[int]int64 // compile-time-known parameter bindings
	Refs   []*Ref
	Groups []*Group

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
}

// Group is a set of references with group locality: same array, same
// coefficients, constants within a page of each other. The Leader is the
// first reference to touch new data (largest constant for a positive
// stride); the Trailer is the last (smallest constant) and is the address
// to release.
type Group struct {
	Arr     *ir.Array
	Members []*Ref
	Leader  *Ref
	Trailer *Ref
}

// Analyze runs the analysis over a program's body. The program must be
// resolved (array layouts fixed). defaultEstTrip controls the assumed
// trip count of loops with unknown bounds; pass 0 for the standard 1024.
func Analyze(p *ir.Program, pageSize, defaultEstTrip int64) *Analysis {
	if defaultEstTrip <= 0 {
		defaultEstTrip = 1024
	}
	a := &Analysis{
		Prog:           p,
		Known:          map[int]int64{},
		PageSize:       pageSize,
		DefaultEstTrip: defaultEstTrip,
	}
	for _, prm := range p.Params {
		if prm.Known {
			a.Known[prm.Slot] = prm.Val
		}
	}
	ir.WalkRefs(p.Body, a.addRef)
	a.group()
	return a
}

func (a *Analysis) addRef(arr *ir.Array, idx []ir.IExpr, isWrite bool, path []*ir.Loop) {
	r := &Ref{
		Arr:           arr,
		Idx:           idx,
		IsWrite:       isWrite,
		Path:          path,
		Coeffs:        map[int]int64{},
		IndirectSlots: map[int]bool{},
	}
	a.decompose(r)
	a.Refs = append(a.Refs, r)
}
