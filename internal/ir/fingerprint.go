package ir

import "math"

// Structural fingerprinting: a 64-bit hash over everything about a
// program that can influence compilation — name, slot layout, parameter
// bindings and their compile-time visibility, array declarations, and
// the full statement tree. Two programs with equal fingerprints are
// structurally identical for the compiler's purposes (up to hash
// collision), so a compile-once cache can key on the fingerprint plus
// machine geometry instead of re-deriving the plan. The walk allocates
// nothing: it is run on every execution of a cached kernel, where the
// whole point is to stop paying per-run compile garbage.

const (
	fpOffset uint64 = 14695981039346656037
	fpPrime  uint64 = 1099511628211
)

type fp uint64

func (h *fp) word(v uint64) {
	*h = fp((uint64(*h) ^ v) * fpPrime)
}

func (h *fp) str(s string) {
	h.word(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h.word(uint64(s[i]))
	}
}

func (h *fp) tag(t uint64) { h.word(t<<56 | 0x5a) }

// Fingerprint hashes the program's compile-relevant structure. Call it
// on the program exactly as it will be handed to the compiler (same
// parameter bindings); resolution state does not need to match, since
// array layout is a deterministic function of the hashed declarations,
// parameters, and the page size the cache keys on separately.
func (p *Program) Fingerprint() uint64 {
	h := fp(fpOffset)
	h.str(p.Name)
	h.word(uint64(p.Seed))
	h.word(uint64(p.NInt))
	h.word(uint64(p.NFloat))
	h.word(uint64(len(p.Params)))
	for _, prm := range p.Params {
		h.str(prm.Name)
		h.word(uint64(prm.Slot))
		h.word(uint64(prm.Val))
		if prm.Known {
			h.word(1)
		} else {
			h.word(0)
		}
	}
	h.word(uint64(len(p.Arrays)))
	for _, a := range p.Arrays {
		h.str(a.Name)
		h.word(uint64(a.Kind))
		h.word(uint64(len(a.DimExprs)))
		for _, de := range a.DimExprs {
			h.iexpr(de)
		}
	}
	h.stmts(p.Body)
	return uint64(h)
}

func (h *fp) stmts(body []Stmt) {
	h.word(uint64(len(body)))
	for _, s := range body {
		h.stmt(s)
	}
}

func (h *fp) stmt(s Stmt) {
	switch x := s.(type) {
	case *Loop:
		h.tag(1)
		h.word(uint64(x.Slot))
		h.iexpr(x.Lo)
		h.iexpr(x.Hi)
		h.word(uint64(x.Step))
		h.stmts(x.Body)
	case AssignF:
		h.tag(2)
		h.ref(x.Arr, x.Idx)
		h.fexpr(x.RHS)
	case AssignI:
		h.tag(3)
		h.ref(x.Arr, x.Idx)
		h.iexpr(x.RHS)
	case SetScalarF:
		h.tag(4)
		h.word(uint64(x.Slot))
		h.fexpr(x.RHS)
	case SetScalarI:
		h.tag(5)
		h.word(uint64(x.Slot))
		h.iexpr(x.RHS)
	case If:
		h.tag(6)
		h.bexpr(x.Cond)
		h.stmts(x.Then)
		h.stmts(x.Else)
	case Prefetch:
		h.tag(7)
		h.ref(x.Arr, x.Idx)
		h.iexpr(x.Pages)
	case Release:
		h.tag(8)
		h.ref(x.Arr, x.Idx)
		h.iexpr(x.Pages)
	case PrefetchRelease:
		h.tag(9)
		h.ref(x.PfArr, x.PfIdx)
		h.iexpr(x.PfPages)
		h.ref(x.RelArr, x.RelIdx)
		h.iexpr(x.RelPages)
	default:
		h.tag(63) // future statement kinds still perturb the hash
	}
}

func (h *fp) ref(a *Array, idx []IExpr) {
	h.str(a.Name)
	h.word(uint64(len(idx)))
	for _, ix := range idx {
		h.iexpr(ix)
	}
}

func (h *fp) iexpr(e IExpr) {
	switch x := e.(type) {
	case IConst:
		h.tag(10)
		h.word(uint64(x.Val))
	case ISlot:
		h.tag(11)
		h.word(uint64(x.Slot))
		h.word(uint64(x.Kind))
	case IBin:
		h.tag(12)
		h.word(uint64(x.Op))
		h.iexpr(x.A)
		h.iexpr(x.B)
	case ILoad:
		h.tag(13)
		h.ref(x.Arr, x.Idx)
	case IFromF:
		h.tag(14)
		h.fexpr(x.X)
	default:
		h.tag(62)
	}
}

func (h *fp) fexpr(e FExpr) {
	switch x := e.(type) {
	case FConst:
		h.tag(20)
		h.word(math.Float64bits(x.Val))
	case FScalar:
		h.tag(21)
		h.word(uint64(x.Slot))
	case FLoad:
		h.tag(22)
		h.ref(x.Arr, x.Idx)
	case FBin:
		h.tag(23)
		h.word(uint64(x.Op))
		h.fexpr(x.A)
		h.fexpr(x.B)
	case FNeg:
		h.tag(24)
		h.fexpr(x.X)
	case FromInt:
		h.tag(25)
		h.iexpr(x.X)
	case FCall:
		h.tag(26)
		h.word(uint64(x.Fn))
		h.word(uint64(len(x.Args)))
		for _, a := range x.Args {
			h.fexpr(a)
		}
	default:
		h.tag(61)
	}
}

func (h *fp) bexpr(e BExpr) {
	switch x := e.(type) {
	case CmpI:
		h.tag(30)
		h.word(uint64(x.Op))
		h.iexpr(x.A)
		h.iexpr(x.B)
	case CmpF:
		h.tag(31)
		h.word(uint64(x.Op))
		h.fexpr(x.A)
		h.fexpr(x.B)
	case And:
		h.tag(32)
		h.bexpr(x.A)
		h.bexpr(x.B)
	case Or:
		h.tag(33)
		h.bexpr(x.A)
		h.bexpr(x.B)
	case Not:
		h.tag(34)
		h.bexpr(x.X)
	default:
		h.tag(60)
	}
}
