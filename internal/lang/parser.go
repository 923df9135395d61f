package lang

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/stash"
)

// Parse compiles source text to a loop-nest IR program.
func Parse(src string) (prog *ir.Program, err error) {
	p := pstash.Take()
	defer func() {
		r := recover()
		p.release()
		if r != nil {
			se, ok := r.(syntaxError)
			if !ok {
				panic(r)
			}
			prog, err = nil, se.err
		}
	}()
	if p.toks, err = lex(src, p.toks); err != nil {
		return nil, err
	}
	if p.syms == nil {
		p.syms = map[string]symbol{}
	}
	p.program()
	if !p.fault.ok() {
		return nil, p.fault.err()
	}
	return p.prog, nil
}

// pstash keeps a parse's working memory for the next: the parser with its
// token buffer, symbol table and stacks. None of it is referenced once
// Parse returns: a token is read by value, and what the IR keeps of one —
// a name — is a substring of the source.
var pstash = stash.New(func(p *parser) int { return cap(p.toks) })

// release empties p, keeping its storage, and puts it back in the stash.
func (p *parser) release() {
	clear(p.syms)
	*p = parser{toks: p.toks[:0], syms: p.syms, loops: p.loops[:0], ops: p.ops[:0]}
	pstash.Put(p)
}

// MustParse is Parse for compiled-in kernel sources; it panics on error.
func MustParse(src string) *ir.Program {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

// A parser reads the tokens once, building the program's IR as it goes. A
// syntax error stops it at once: fail panics, and Parse recovers. A
// semantic error (a fault) is noted and the reading goes on, so that every
// syntax error wins over every semantic one; the fault reported is the
// first in the order the declarations, and then the statements, resolve.
type parser struct {
	toks  []token
	pos   int
	prog  *ir.Program
	syms  map[string]symbol
	loops []loopVar // the loop variables in scope, innermost last: they shadow the symbols
	ops   []operand // a stack: the subscripts and call arguments being read
	fault fault     // the first semantic error
}

// A syntaxError is what fail panics with.
type syntaxError struct{ err error }

// A symbol is a declared name. A slot is boxed once, at its declaration,
// and every reference shares it.
type symbol struct {
	what string   // "param", "array" or "scalar", as a redeclaration names it
	i    ir.IExpr // a parameter's or an integer scalar's slot
	f    ir.FExpr // a float scalar
	arr  *ir.Array
}

type loopVar struct {
	name string
	slot ir.IExpr
}

func (p *parser) cur() token { return p.toks[p.pos] }

func (p *parser) fail(t token, format string, args ...interface{}) {
	panic(syntaxError{errorAt(t.line, t.col, format, args...)})
}

// note keeps f if it is the first fault.
func (p *parser) note(f fault) {
	if p.fault.ok() {
		p.fault = f
	}
}

func (p *parser) accept(text string) bool {
	if p.cur().kind == tPunct && p.cur().text == text {
		p.pos++
		return true
	}
	return false
}

func (p *parser) acceptKw(kw string) bool {
	if p.cur().kind == tIdent && p.cur().text == kw {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(text string) {
	if !p.accept(text) {
		p.fail(p.cur(), "expected %q, found %s", text, p.cur())
	}
}

func (p *parser) expectIdent() token {
	t := p.cur()
	if t.kind != tIdent {
		p.fail(t, "expected identifier, found %s", t)
	}
	p.pos++
	return t
}

// intLit reads the integer literal a seed or a step needs.
func (p *parser) intLit(what string) int64 {
	t := p.cur()
	if t.kind != tInt {
		p.fail(t, "%s needs an integer literal", what)
	}
	p.pos++
	return t.ival
}

func (p *parser) program() {
	if !p.acceptKw("program") {
		p.fail(p.cur(), "file must start with 'program <name>'")
	}
	p.prog = ir.NewProgram(p.expectIdent().text)
	p.declarations()
	for p.cur().kind != tEOF {
		p.prog.Body = append(p.prog.Body, p.stmt())
	}
}

// Declaration categories, in the order they are declared.
const (
	catParam = iota
	catArray
	catScalar
)

// declarations reads the declaration section, then declares what it read
// in category order — parameters, arrays, scalars — whatever the textual
// order, reading each declaration once more from where it starts.
func (p *parser) declarations() {
	type decl struct {
		at  int // the token the declaration starts at
		flt bool
	}
	var decls [3][]decl
	for {
		switch at := p.pos; {
		case p.cur().kind == tIdent && p.cur().text == "param":
			decls[catParam] = append(decls[catParam], decl{at: at})
			p.decl(catParam, false, false)
		case p.acceptKw("array"), p.acceptKw("scalar"):
			cat := catArray
			if p.toks[at].text == "scalar" {
				cat = catScalar
			}
			flt := p.elemKind()
			for ok := true; ok; ok = p.accept(",") {
				decls[cat] = append(decls[cat], decl{at: p.pos, flt: flt})
				p.decl(cat, flt, false)
			}
		case p.acceptKw("seed"):
			p.prog.Seed = p.intLit("seed")
		default:
			end := p.pos
			for cat, ds := range decls {
				for _, d := range ds {
					p.pos = d.at
					p.decl(cat, d.flt, true)
				}
			}
			p.pos = end
			return
		}
	}
}

// decl reads one declaration of category cat — "param name = value
// [unknown]", an array's name and extents, or a scalar's name — and
// declares it if define is set.
func (p *parser) decl(cat int, flt, define bool) {
	kw := p.cur()
	if cat == catParam {
		p.pos++
	}
	id := p.expectIdent()
	base := len(p.ops)
	switch cat {
	case catParam:
		p.expect("=")
		val := p.expr()
		unknown := p.acceptKw("unknown")
		if define {
			p.claim(kw, id.text, "param")
			ie, f := val.int()
			p.note(f)
			if v, ok := ir.ConstEval(ie, p.prog.Binding); ok {
				p.syms[id.text] = symbol{what: "param", i: p.prog.NewParam(id.text, v, !unknown)}
			} else {
				p.note(faultf(kw, "param %s: value must be constant (no division by zero)", id.text))
			}
		}
	case catArray:
		if p.subscripts(); len(p.ops) == base {
			p.fail(id, "array %s needs at least one dimension", id.text)
		}
		if define {
			p.claim(id, id.text, "array")
			dims, f := ints(p.ops[base:])
			p.note(f)
			var arr *ir.Array
			if flt {
				arr = p.prog.NewArrayF(id.text, dims...)
			} else {
				arr = p.prog.NewArrayI(id.text, dims...)
			}
			p.syms[id.text] = symbol{what: "array", arr: arr}
		}
	case catScalar:
		if define {
			p.claim(id, id.text, "scalar")
			if flt {
				p.syms[id.text] = symbol{what: "scalar", f: p.prog.NewScalarF(id.text)}
			} else {
				p.syms[id.text] = symbol{what: "scalar", i: p.prog.NewScalarI(id.text)}
			}
		}
	}
	p.ops = p.ops[:base]
}

// claim notes a redeclaration of name.
func (p *parser) claim(t token, name, what string) {
	if s, ok := p.syms[name]; ok {
		p.note(faultf(t, "%s %q redeclares %s", what, name, s.what))
	}
}

// elemKind reads "double" (true) or "long".
func (p *parser) elemKind() bool {
	if !p.acceptKw("double") && !p.acceptKw("long") {
		p.fail(p.cur(), "expected 'double' or 'long'")
	}
	return p.toks[p.pos-1].text == "double"
}

// subscripts reads "[expr]"... onto the operand stack.
func (p *parser) subscripts() {
	for p.accept("[") {
		x := p.expr()
		p.expect("]")
		p.ops = append(p.ops, x)
	}
}

func (p *parser) block() []ir.Stmt {
	p.expect("{")
	var out []ir.Stmt
	for !p.accept("}") {
		if p.cur().kind == tEOF {
			p.fail(p.cur(), "unterminated block")
		}
		out = append(out, p.stmt())
	}
	return out
}

// stmt reads one statement. A statement with a fault is nil; the program
// is rejected.
func (p *parser) stmt() ir.Stmt {
	t := p.cur()
	switch {
	case p.acceptKw("for"):
		v := p.expectIdent()
		p.expect("=")
		lo := p.expr()
		p.expect("..")
		hi := p.expr()
		step := int64(1)
		if p.acceptKw("step") {
			step = p.intLit("step")
		}
		l, f := lo.int()
		p.note(f)
		h, f := hi.int()
		p.note(f)
		if step <= 0 {
			p.note(at(t, "loop step must be positive", ""))
			step = 1 // ir.For refuses a zero step; the program is rejected
		}
		slot := p.prog.NewLoopVar(v.text)
		p.loops = append(p.loops, loopVar{v.text, slot})
		body := p.block()
		p.loops = p.loops[:len(p.loops)-1]
		return ir.For(slot, l, h, step, body...)

	case p.acceptKw("if"):
		x := p.expr()
		cond, f := x.bool()
		p.note(f)
		then := p.block()
		var els []ir.Stmt
		if p.acceptKw("else") {
			els = p.block()
		}
		return ir.If{Cond: cond, Then: then, Else: els}

	case t.kind == tIdent:
		p.pos++
		base := len(p.ops)
		p.subscripts()
		p.expect("=")
		rhs := p.expr()
		s := p.assign(t, p.ops[base:], &rhs)
		p.ops = p.ops[:base]
		return s
	}
	p.fail(t, "expected statement, found %s", t)
	return nil
}

// assign lowers "name[subs] = rhs": a scalar assignment without subscripts,
// an array store with them.
func (p *parser) assign(t token, subs []operand, rhs *operand) ir.Stmt {
	s := p.syms[t.text]
	switch {
	case len(subs) == 0 && s.what == "scalar" && s.f != nil:
		x, f := rhs.float()
		p.note(f)
		return ir.SetF(s.f.(ir.FScalar), x)
	case len(subs) == 0 && s.what == "scalar":
		x, f := rhs.int()
		p.note(f)
		return ir.SetI(s.i.(ir.ISlot), x)
	case len(subs) == 0:
		p.note(at(t, "assignment to undeclared scalar %q", t.text))
	case s.arr == nil:
		p.note(at(t, "store to undeclared array %q", t.text))
	case len(subs) != len(s.arr.DimExprs):
		p.note(dimsFault(t, s.arr, len(subs)))
	default:
		idx, f := ints(subs)
		p.note(f)
		if s.arr.Kind == ir.F64 {
			x, f := rhs.float()
			p.note(f)
			return ir.StoreF(s.arr, idx, x)
		}
		x, f := rhs.int()
		p.note(f)
		return ir.StoreI(s.arr, idx, x)
	}
	return nil
}

func dimsFault(t token, arr *ir.Array, n int) fault {
	return faultf(t, "array %s has %d dimensions, got %d subscripts", arr.Name, len(arr.DimExprs), n)
}

// faultf is a fault whose message is formatted now.
func faultf(t token, format string, args ...interface{}) fault {
	return fault{t.line, t.col, fmt.Sprintf(format, args...), ""}
}
