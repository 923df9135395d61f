package lang

import (
	"fmt"

	"repro/internal/ir"
)

// Parse compiles source text to a loop-nest IR program.
func Parse(src string) (*ir.Program, error) {
	f, err := parse(src)
	if err != nil {
		return nil, err
	}
	s := &sema{
		prog:    ir.NewProgram(f.name),
		arrays:  map[string]*ir.Array{},
		paramsI: map[string]ir.ISlot{},
		scalarI: map[string]ir.ISlot{},
		scalarF: map[string]ir.FScalar{},
	}
	if f.hasSeed {
		s.prog.Seed = f.seed
	}
	if err := s.declare(f); err != nil {
		return nil, err
	}
	body, err := s.stmts(f.body)
	if err != nil {
		return nil, err
	}
	s.prog.Body = body
	return s.prog, nil
}

// MustParse is Parse for compiled-in kernel sources; it panics on error.
func MustParse(src string) *ir.Program {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

type sema struct {
	prog    *ir.Program
	arrays  map[string]*ir.Array
	paramsI map[string]ir.ISlot
	scalarI map[string]ir.ISlot
	scalarF map[string]ir.FScalar
	// loop variables, innermost last (lexical scoping with shadowing)
	loops []struct {
		name string
		slot ir.ISlot
	}
}

func errAt(e interface{ pos() (int, int) }, format string, args ...interface{}) error {
	l, c := e.pos()
	return &Error{Line: l, Col: c, Msg: fmt.Sprintf(format, args...)}
}

func (s *sema) declare(f *file) error {
	taken := map[string]string{}
	claim := func(name, what string, line, col int) error {
		if prev, ok := taken[name]; ok {
			return &Error{Line: line, Col: col, Msg: fmt.Sprintf("%s %q redeclares %s", what, name, prev)}
		}
		taken[name] = what
		return nil
	}
	for _, pd := range f.params {
		if err := claim(pd.name, "param", pd.line, pd.col); err != nil {
			return err
		}
		// Parameter values may reference earlier parameters.
		ie, err := s.intExpr(pd.val)
		if err != nil {
			return err
		}
		env := map[int]int64{}
		for _, prm := range s.prog.Params {
			env[prm.Slot] = prm.Val
		}
		v, ok := ir.ConstEval(ie, env)
		if !ok {
			return &Error{Line: pd.line, Col: pd.col, Msg: fmt.Sprintf("param %s: value must be constant (no division by zero)", pd.name)}
		}
		s.paramsI[pd.name] = s.prog.NewParam(pd.name, v, !pd.unknown)
	}
	for _, ad := range f.arrays {
		if err := claim(ad.name, "array", ad.line, ad.col); err != nil {
			return err
		}
		dims := make([]ir.IExpr, len(ad.dims))
		for i, d := range ad.dims {
			ie, err := s.intExpr(d)
			if err != nil {
				return err
			}
			dims[i] = ie
		}
		if ad.isFloat {
			s.arrays[ad.name] = s.prog.NewArrayF(ad.name, dims...)
		} else {
			s.arrays[ad.name] = s.prog.NewArrayI(ad.name, dims...)
		}
	}
	for _, sd := range f.scalars {
		if err := claim(sd.name, "scalar", sd.line, sd.col); err != nil {
			return err
		}
		if sd.isFloat {
			s.scalarF[sd.name] = s.prog.NewScalarF(sd.name)
		} else {
			s.scalarI[sd.name] = s.prog.NewScalarI(sd.name)
		}
	}
	return nil
}

func (s *sema) lookupLoop(name string) (ir.ISlot, bool) {
	for i := len(s.loops) - 1; i >= 0; i-- {
		if s.loops[i].name == name {
			return s.loops[i].slot, true
		}
	}
	return ir.ISlot{}, false
}

func (s *sema) stmts(in []stmt) ([]ir.Stmt, error) {
	var out []ir.Stmt
	for _, st := range in {
		lowered, err := s.stmt(st)
		if err != nil {
			return nil, err
		}
		out = append(out, lowered)
	}
	return out, nil
}

func (s *sema) stmt(st stmt) (ir.Stmt, error) {
	switch x := st.(type) {
	case forStmt:
		lo, err := s.intExpr(x.lo)
		if err != nil {
			return nil, err
		}
		hi, err := s.intExpr(x.hi)
		if err != nil {
			return nil, err
		}
		if x.step <= 0 {
			return nil, &Error{Line: x.line, Col: x.col, Msg: "loop step must be positive"}
		}
		v := s.prog.NewLoopVar(x.v)
		s.loops = append(s.loops, struct {
			name string
			slot ir.ISlot
		}{x.v, v})
		body, err := s.stmts(x.body)
		s.loops = s.loops[:len(s.loops)-1]
		if err != nil {
			return nil, err
		}
		return ir.For(v, lo, hi, x.step, body...), nil

	case ifStmt:
		cond, err := s.boolExpr(x.cond)
		if err != nil {
			return nil, err
		}
		then, err := s.stmts(x.then)
		if err != nil {
			return nil, err
		}
		els, err := s.stmts(x.els)
		if err != nil {
			return nil, err
		}
		return ir.If{Cond: cond, Then: then, Else: els}, nil

	case assignStmt:
		if x.idx == nil {
			if fs, ok := s.scalarF[x.name]; ok {
				rhs, err := s.floatExpr(x.rhs)
				if err != nil {
					return nil, err
				}
				return ir.SetF(fs, rhs), nil
			}
			if is, ok := s.scalarI[x.name]; ok {
				rhs, err := s.intExpr(x.rhs)
				if err != nil {
					return nil, err
				}
				return ir.SetI(is, rhs), nil
			}
			return nil, &Error{Line: x.line, Col: x.col, Msg: fmt.Sprintf("assignment to undeclared scalar %q", x.name)}
		}
		arr, ok := s.arrays[x.name]
		if !ok {
			return nil, &Error{Line: x.line, Col: x.col, Msg: fmt.Sprintf("store to undeclared array %q", x.name)}
		}
		if len(x.idx) != len(arr.DimExprs) {
			return nil, &Error{Line: x.line, Col: x.col,
				Msg: fmt.Sprintf("array %s has %d dimensions, got %d subscripts", x.name, len(arr.DimExprs), len(x.idx))}
		}
		idx := make([]ir.IExpr, len(x.idx))
		for i, d := range x.idx {
			ie, err := s.intExpr(d)
			if err != nil {
				return nil, err
			}
			idx[i] = ie
		}
		if arr.Kind == ir.F64 {
			rhs, err := s.floatExpr(x.rhs)
			if err != nil {
				return nil, err
			}
			return ir.StoreF(arr, idx, rhs), nil
		}
		rhs, err := s.intExpr(x.rhs)
		if err != nil {
			return nil, err
		}
		return ir.StoreI(arr, idx, rhs), nil
	}
	return nil, fmt.Errorf("lang: unknown statement %T", st)
}
