package ir

// Clone returns a deep copy of the program: fresh Param and Array
// structs, and a body rebuilt so every array reference points at the
// copies (expression subtrees that name no array are immutable values and
// are shared). A clone is what a compile cache must own — the caller's
// program instance can be re-parameterized and re-resolved at will
// (SetParam, Resolve with another page size) without mutating the array
// geometry a cached compilation baked into its closures.
//
// Resolution state is carried over: if the receiver is resolved, the
// clone is too, with the same Dims/Strides/Base.
//
// A counting walk sizes one slice each of index expressions, statements,
// loops, arrays, params and extents, and the copy's lists are cut from
// them, each a full slice expression: an append to one cut reallocates
// instead of writing into the next.
func (p *Program) Clone() *Program {
	q := &Program{
		Name:     p.Name,
		NInt:     p.NInt,
		NFloat:   p.NFloat,
		ScalarsI: make(map[string]int, len(p.ScalarsI)),
		ScalarsF: make(map[string]int, len(p.ScalarsF)),
		Seed:     p.Seed,
		resolved: p.resolved,
	}
	for k, v := range p.ScalarsI {
		q.ScalarsI[k] = v
	}
	for k, v := range p.ScalarsF {
		q.ScalarsF[k] = v
	}
	params := make([]Param, len(p.Params))
	q.Params = make([]*Param, len(p.Params))
	for i, prm := range p.Params {
		params[i] = *prm
		q.Params[i] = &params[i]
	}

	var n cloneSize
	var extents int
	for _, a := range p.Arrays {
		n.idx += len(a.DimExprs)
		extents += len(a.Dims) + len(a.Strides)
	}
	n.stmts(p.Body)
	c := cloner{
		from:  p.Arrays,
		idx:   make([]IExpr, 0, n.idx),
		body:  make([]Stmt, 0, n.body),
		loops: make([]Loop, 0, n.loops),
	}
	arrays := make([]Array, len(p.Arrays))
	ext := make([]int64, 0, extents)
	q.Arrays = make([]*Array, len(p.Arrays))
	for i, a := range p.Arrays {
		ca := &arrays[i]
		*ca = Array{Name: a.Name, Kind: a.Kind, Base: a.Base, Elems: a.Elems}
		ca.DimExprs = cut(&c.idx, a.DimExprs)
		ca.Dims = cut(&ext, a.Dims)
		ca.Strides = cut(&ext, a.Strides)
		q.Arrays[i] = ca
	}
	c.to = q.Arrays
	q.Body = c.stmts(p.Body)
	return q
}

// cut appends src to the arena and returns the appended part with its
// capacity capped; nil stays nil.
func cut[T any](arena *[]T, src []T) []T {
	if src == nil {
		return nil
	}
	n := len(*arena)
	*arena = append(*arena, src...)
	return (*arena)[n:len(*arena):len(*arena)]
}

// cloneSize counts what a clone cuts from its arenas: the entries of
// every index list (statements' and loads'), of every statement list, and
// the loops.
type cloneSize struct{ idx, body, loops int }

func (n *cloneSize) stmts(body []Stmt) {
	n.body += len(body)
	for _, s := range body {
		switch x := s.(type) {
		case *Loop:
			n.loops++
			n.iexpr(x.Lo)
			n.iexpr(x.Hi)
			n.stmts(x.Body)
		case AssignF:
			n.ref(x.Idx)
			n.fexpr(x.RHS)
		case AssignI:
			n.ref(x.Idx)
			n.iexpr(x.RHS)
		case SetScalarF:
			n.fexpr(x.RHS)
		case SetScalarI:
			n.iexpr(x.RHS)
		case If:
			n.bexpr(x.Cond)
			n.stmts(x.Then)
			n.stmts(x.Else)
		case Prefetch:
			n.ref(x.Idx)
			n.iexpr(x.Pages)
		case Release:
			n.ref(x.Idx)
			n.iexpr(x.Pages)
		case PrefetchRelease:
			n.ref(x.PfIdx)
			n.ref(x.RelIdx)
			n.iexpr(x.PfPages)
			n.iexpr(x.RelPages)
		}
	}
}

func (n *cloneSize) ref(idx []IExpr) {
	n.idx += len(idx)
	for _, e := range idx {
		n.iexpr(e)
	}
}

func (n *cloneSize) iexpr(e IExpr) {
	switch x := e.(type) {
	case IBin:
		n.iexpr(x.A)
		n.iexpr(x.B)
	case ILoad:
		n.ref(x.Idx)
	case IFromF:
		n.fexpr(x.X)
	}
}

func (n *cloneSize) fexpr(e FExpr) {
	switch x := e.(type) {
	case FLoad:
		n.ref(x.Idx)
	case FBin:
		n.fexpr(x.A)
		n.fexpr(x.B)
	case FNeg:
		n.fexpr(x.X)
	case FromInt:
		n.iexpr(x.X)
	case FCall:
		for _, a := range x.Args {
			n.fexpr(a)
		}
	}
}

func (n *cloneSize) bexpr(e BExpr) {
	switch x := e.(type) {
	case CmpI:
		n.iexpr(x.A)
		n.iexpr(x.B)
	case CmpF:
		n.fexpr(x.A)
		n.fexpr(x.B)
	case And:
		n.bexpr(x.A)
		n.bexpr(x.B)
	case Or:
		n.bexpr(x.A)
		n.bexpr(x.B)
	case Not:
		n.bexpr(x.X)
	}
}

// cloner is one Clone call's state: the arrays and their copies, and the
// arenas sized by cloneSize that the copy's index lists, bodies and loops
// are cut from.
type cloner struct {
	from  []*Array
	to    []*Array
	idx   []IExpr
	body  []Stmt
	loops []Loop
}

// arr returns the copy of a; a program has a few dozen arrays at most, so
// a scan costs less than a map.
func (c *cloner) arr(a *Array) *Array {
	for i, x := range c.from {
		if x == a {
			return c.to[i]
		}
	}
	return nil
}

func (c *cloner) stmts(body []Stmt) []Stmt {
	if body == nil {
		return nil
	}
	out := cut(&c.body, body)
	for i, s := range out {
		out[i] = c.stmt(s)
	}
	return out
}

func (c *cloner) stmt(s Stmt) Stmt {
	switch x := s.(type) {
	case *Loop:
		c.loops = append(c.loops, *x)
		cl := &c.loops[len(c.loops)-1]
		cl.Lo, _ = c.iexpr(x.Lo)
		cl.Hi, _ = c.iexpr(x.Hi)
		cl.Body = c.stmts(x.Body)
		return cl
	case AssignF:
		x.Arr, x.Idx = c.arr(x.Arr), c.index(x.Idx)
		x.RHS, _ = c.fexpr(x.RHS)
		return x
	case AssignI:
		x.Arr, x.Idx = c.arr(x.Arr), c.index(x.Idx)
		x.RHS, _ = c.iexpr(x.RHS)
		return x
	case SetScalarF:
		rhs, changed := c.fexpr(x.RHS)
		if !changed {
			return s
		}
		x.RHS = rhs
		return x
	case SetScalarI:
		rhs, changed := c.iexpr(x.RHS)
		if !changed {
			return s
		}
		x.RHS = rhs
		return x
	case If:
		x.Cond, _ = c.bexpr(x.Cond)
		x.Then, x.Else = c.stmts(x.Then), c.stmts(x.Else)
		return x
	case Prefetch:
		x.Arr, x.Idx = c.arr(x.Arr), c.index(x.Idx)
		x.Pages, _ = c.iexpr(x.Pages)
		return x
	case Release:
		x.Arr, x.Idx = c.arr(x.Arr), c.index(x.Idx)
		x.Pages, _ = c.iexpr(x.Pages)
		return x
	case PrefetchRelease:
		x.PfArr, x.PfIdx = c.arr(x.PfArr), c.index(x.PfIdx)
		x.RelArr, x.RelIdx = c.arr(x.RelArr), c.index(x.RelIdx)
		x.PfPages, _ = c.iexpr(x.PfPages)
		x.RelPages, _ = c.iexpr(x.RelPages)
		return x
	default:
		// Unknown statement kinds pass through by reference; the compiler
		// will reject them with its own diagnostic.
		return s
	}
}

func (c *cloner) index(idx []IExpr) []IExpr {
	out := cut(&c.idx, idx)
	for i, e := range out {
		out[i], _ = c.iexpr(e)
	}
	return out
}

// The expression cloners report whether the copy differs from e.
// Expression nodes are immutable values and only a load names an array,
// so a subtree without a load is shared with the original, and a subtree
// with one is rebuilt along the path from the load to its root.

func (c *cloner) iexpr(e IExpr) (IExpr, bool) {
	switch x := e.(type) {
	case IBin:
		a, ca := c.iexpr(x.A)
		b, cb := c.iexpr(x.B)
		if ca || cb {
			return IBin{Op: x.Op, A: a, B: b}, true
		}
	case ILoad:
		return ILoad{Arr: c.arr(x.Arr), Idx: c.index(x.Idx)}, true
	case IFromF:
		if f, changed := c.fexpr(x.X); changed {
			return IFromF{X: f}, true
		}
	}
	return e, false
}

func (c *cloner) fexpr(e FExpr) (FExpr, bool) {
	switch x := e.(type) {
	case FLoad:
		return FLoad{Arr: c.arr(x.Arr), Idx: c.index(x.Idx)}, true
	case FBin:
		a, ca := c.fexpr(x.A)
		b, cb := c.fexpr(x.B)
		if ca || cb {
			return FBin{Op: x.Op, A: a, B: b}, true
		}
	case FNeg:
		if f, changed := c.fexpr(x.X); changed {
			return FNeg{X: f}, true
		}
	case FromInt:
		if i, changed := c.iexpr(x.X); changed {
			return FromInt{X: i}, true
		}
	case FCall:
		var args []FExpr
		for i, a := range x.Args {
			if c, changed := c.fexpr(a); changed {
				if args == nil {
					args = append([]FExpr(nil), x.Args...)
				}
				args[i] = c
			}
		}
		if args != nil {
			return FCall{Fn: x.Fn, Args: args}, true
		}
	}
	return e, false
}

func (c *cloner) bexpr(e BExpr) (BExpr, bool) {
	switch x := e.(type) {
	case CmpI:
		a, ca := c.iexpr(x.A)
		b, cb := c.iexpr(x.B)
		if ca || cb {
			return CmpI{Op: x.Op, A: a, B: b}, true
		}
	case CmpF:
		a, ca := c.fexpr(x.A)
		b, cb := c.fexpr(x.B)
		if ca || cb {
			return CmpF{Op: x.Op, A: a, B: b}, true
		}
	case And:
		a, ca := c.bexpr(x.A)
		b, cb := c.bexpr(x.B)
		if ca || cb {
			return And{A: a, B: b}, true
		}
	case Or:
		a, ca := c.bexpr(x.A)
		b, cb := c.bexpr(x.B)
		if ca || cb {
			return Or{A: a, B: b}, true
		}
	case Not:
		if b, changed := c.bexpr(x.X); changed {
			return Not{X: b}, true
		}
	}
	return e, false
}
