package lang

import "repro/internal/ir"

var intrinsics = map[string]ir.Intrinsic{
	"sqrt":   ir.Sqrt,
	"fabs":   ir.Abs,
	"log":    ir.Log,
	"exp":    ir.Exp,
	"sin":    ir.Sin,
	"cos":    ir.Cos,
	"pow":    ir.Pow,
	"randlc": ir.Randlc,
}

var iBinOps = map[string]ir.IBinOp{
	"+": ir.IAdd, "-": ir.ISub, "*": ir.IMul, "/": ir.IDiv, "%": ir.IMod,
	"<<": ir.IShl, ">>": ir.IShr,
}

var fBinOps = map[string]ir.FBinOp{
	"+": ir.FAdd, "-": ir.FSub, "*": ir.FMul, "/": ir.FDiv,
}

var cmpOps = map[string]ir.CmpOp{
	"<": ir.Lt, "<=": ir.Le, ">": ir.Gt, ">=": ir.Ge, "==": ir.Eq, "!=": ir.Ne,
}

var binPrec = map[string]int{
	"||": 1,
	"&&": 2,
	"==": 3, "!=": 3, "<": 3, "<=": 3, ">": 3, ">=": 3,
	"+": 4, "-": 4,
	"*": 5, "/": 5, "%": 5, "<<": 5, ">>": 5,
}

// A fault is a semantic error held as a value: an operand carries one for
// each context that would reject it, and most are never reported, so
// making one allocates nothing. msg is a format whose one verb, if it has
// one, takes arg.
type fault struct {
	line, col int
	msg, arg  string
}

func at(t token, msg, arg string) fault { return fault{t.line, t.col, msg, arg} }

func (f fault) ok() bool { return f.msg == "" }

// or is f, or g if f is no fault.
func (f fault) or(g fault) fault {
	if f.ok() {
		return g
	}
	return f
}

func (f fault) err() error {
	if f.arg == "" {
		return &Error{Line: f.line, Col: f.col, Msg: f.msg}
	}
	return errorAt(f.line, f.col, f.msg, f.arg)
}

// An operand is an expression read so far, lowered for each context it may
// yet be used in — integer, float and boolean — to IR or to the fault that
// context reports. flt says whether it is float-typed: a float literal,
// scalar or array, a call of anything but int() (min and max only over a
// float), or an operator over such an operand, comparisons included. In
// float context an operand that is not converts at use: its integer IR
// under one FromInt.
type operand struct {
	flt              bool
	i                ir.IExpr
	f                ir.FExpr // only when flt
	b                ir.BExpr
	ierr, ferr, berr fault
}

func (o *operand) int() (ir.IExpr, fault) { return o.i, o.ierr }

func (o *operand) bool() (ir.BExpr, fault) { return o.b, o.berr }

func (o *operand) float() (ir.FExpr, fault) {
	switch {
	case o.flt:
		return o.f, o.ferr
	case !o.ierr.ok():
		return nil, o.ierr
	}
	return ir.FromInt{X: o.i}, fault{}
}

// ints lowers operands in integer context into a slice of their own, and
// returns the first fault among them.
func ints(ops []operand) ([]ir.IExpr, fault) {
	out := make([]ir.IExpr, len(ops))
	var first fault
	for k := range ops {
		var f fault
		out[k], f = ops[k].int()
		first = first.or(f)
	}
	return out, first
}

// Expression parsing: precedence climbing. A semantic error is a fault of
// the operand, reported only if the operand is used where it faults.

func (p *parser) expr() operand { return p.binary(1) }

func (p *parser) binary(minPrec int) operand {
	x := p.unary()
	for {
		t := p.cur()
		if t.kind != tPunct {
			return x
		}
		prec, ok := binPrec[t.text]
		if !ok || prec < minPrec {
			return x
		}
		p.pos++
		y := p.binary(prec + 1)
		x = binOp(t, &x, &y)
	}
}

func (p *parser) unary() operand {
	t := p.cur()
	if t.kind != tPunct || t.text != "-" && t.text != "!" {
		return p.primary()
	}
	p.pos++
	x := p.unary()
	o := operand{flt: x.flt}
	if t.text == "-" {
		o.berr = at(t, "expected boolean expression", "")
		v, f := x.int()
		if o.ierr = f; f.ok() {
			o.i = ir.SubI(ir.Int(0), v)
		}
		if o.flt {
			v, f := x.float()
			if o.ferr = f; f.ok() {
				o.f = ir.FNeg{X: v}
			}
		}
		return o
	}
	o.ierr, o.ferr = at(t, "operator %q in integer context", "!"), at(t, "operator %q in float context", "!")
	if !o.flt {
		o.ferr = o.ierr
	}
	v, f := x.bool()
	if o.berr = f; f.ok() {
		o.b = ir.Not{X: v}
	}
	return o
}

func (p *parser) primary() operand {
	t := p.cur()
	notBool := at(t, "expected boolean expression", "")
	switch {
	case t.kind == tInt:
		p.pos++
		return operand{i: ir.Int(t.ival), berr: notBool}
	case t.kind == tFloat:
		p.pos++
		return operand{flt: true, f: ir.Flt(t.fval), ierr: at(t, "float literal in integer context", ""), berr: notBool}
	case t.kind == tPunct && t.text == "(":
		p.pos++
		x := p.expr()
		p.expect(")")
		return x
	case t.kind != tIdent:
		p.fail(t, "expected expression, found %s", t)
	}
	p.pos++
	base := len(p.ops)
	var o operand
	if p.accept("(") {
		for more := !p.accept(")"); more; {
			p.ops = append(p.ops, p.expr())
			if more = !p.accept(")"); more {
				p.expect(",")
			}
		}
		o = call(t, p.ops[base:], notBool)
	} else if p.subscripts(); len(p.ops) > base {
		o = p.index(t, p.ops[base:], notBool)
	} else {
		o = p.ident(t, notBool)
	}
	p.ops = p.ops[:base]
	return o
}

// binOp is "x t y".
func binOp(t token, x, y *operand) operand {
	o := operand{flt: x.flt || y.flt}
	if op, ok := iBinOps[t.text]; ok {
		o.berr = at(t, "expected comparison, found %q", t.text)
		a, fa := x.int()
		b, fb := y.int()
		if o.ierr = fa.or(fb); o.ierr.ok() {
			o.i = ir.IBin{Op: op, A: a, B: b}
		}
		if fop, ok := fBinOps[t.text]; o.flt && !ok {
			o.ferr = at(t, "operator %q not valid on floats", t.text)
		} else if o.flt {
			a, fa := x.float()
			b, fb := y.float()
			if o.ferr = fa.or(fb); o.ferr.ok() {
				o.f = ir.FBin{Op: fop, A: a, B: b}
			}
		}
		return o
	}
	// && || and the comparisons are boolean.
	o.ierr = at(t, "boolean expression in integer context", "")
	o.ferr = o.ierr
	if o.flt {
		o.ferr = at(t, "operator %q not valid on floats", t.text)
	}
	op, cmp := cmpOps[t.text]
	switch {
	case !cmp:
		a, fa := x.bool()
		b, fb := y.bool()
		if o.berr = fa.or(fb); o.berr.ok() && t.text == "&&" {
			o.b = ir.And{A: a, B: b}
		} else if o.berr.ok() {
			o.b = ir.Or{A: a, B: b}
		}
	case o.flt:
		a, fa := x.float()
		b, fb := y.float()
		if o.berr = fa.or(fb); o.berr.ok() {
			o.b = ir.CmpF{Op: op, A: a, B: b}
		}
	default:
		a, fa := x.int()
		b, fb := y.int()
		if o.berr = fa.or(fb); o.berr.ok() {
			o.b = ir.CmpI{Op: op, A: a, B: b}
		}
	}
	return o
}

// ident is a name without subscripts: a loop variable, a parameter or a
// scalar. A loop variable shadows a name only in integer context.
func (p *parser) ident(t token, notBool fault) operand {
	s := p.syms[t.text]
	o := operand{flt: s.f != nil, f: s.f, i: s.i, berr: notBool}
	for k := len(p.loops) - 1; k >= 0; k-- {
		if p.loops[k].name == t.text {
			o.i = p.loops[k].slot
			return o
		}
	}
	switch {
	case s.f != nil:
		o.ierr = at(t, "float scalar %q in integer context", t.text)
	case s.i == nil:
		o.ierr = at(t, "undeclared identifier %q", t.text)
	}
	return o
}

// index is an array reference. Its subscripts are a slice of its own.
func (p *parser) index(t token, subs []operand, notBool fault) operand {
	arr := p.syms[t.text].arr
	var idx []ir.IExpr
	var f fault
	switch {
	case arr == nil:
		f = at(t, "undeclared array %q", t.text)
	case len(subs) != len(arr.DimExprs):
		f = dimsFault(t, arr, len(subs))
	default:
		idx, f = ints(subs)
	}
	o := operand{berr: notBool, ierr: f}
	switch {
	case arr != nil && arr.Kind == ir.F64:
		o.flt, o.ferr = true, f
		if o.ierr = f.or(at(t, "double array %q in integer context", t.text)); f.ok() {
			o.f = ir.FLoad{Arr: arr, Idx: idx}
		}
	case f.ok():
		o.i = ir.ILoad{Arr: arr, Idx: idx}
	}
	return o
}

// call is a call of name t: int(), min and max, or a float function.
func call(t token, args []operand, notBool fault) operand {
	o := operand{berr: notBool}
	switch t.text {
	case "int":
		if len(args) != 1 {
			o.ierr = at(t, "int() takes 1 argument", "")
		} else if v, f := args[0].float(); f.ok() {
			o.i = ir.IFromF{X: v}
		} else {
			o.ierr = f
		}
		return o
	case "min", "max":
		for k := range args {
			o.flt = o.flt || args[k].flt
		}
		if len(args) != 2 {
			o.ierr = at(t, "%s takes 2 arguments", t.text)
			o.ferr = o.ierr
			return o
		}
		a, fa := args[0].int()
		b, fb := args[1].int()
		if o.ierr = fa.or(fb); o.ierr.ok() && t.text == "min" {
			o.i = ir.MinI(a, b)
		} else if o.ierr.ok() {
			o.i = ir.MaxI(a, b)
		}
		if !o.flt {
			return o
		}
	default:
		o.flt, o.ierr = true, at(t, "call %s() in integer context", t.text)
	}
	var f fault
	switch t.text {
	case "float":
		if len(args) != 1 {
			f = at(t, "float() takes 1 argument", "")
		} else if v, g := args[0].int(); g.ok() {
			o.f = ir.FromInt{X: v}
		} else {
			f = g
		}
	case "min", "max", "fmin", "fmax":
		if len(args) != 2 {
			f = at(t, "%s takes 2 arguments", t.text)
			break
		}
		a, fa := args[0].float()
		b, fb := args[1].float()
		op := ir.FMinOp
		if t.text == "max" || t.text == "fmax" {
			op = ir.FMaxOp
		}
		if f = fa.or(fb); f.ok() {
			o.f = ir.FBin{Op: op, A: a, B: b}
		}
	default:
		fn, ok := intrinsics[t.text]
		want := 1
		switch fn {
		case ir.Pow:
			want = 2
		case ir.Randlc:
			want = 0
		}
		switch {
		case !ok:
			f = at(t, "unknown function %q", t.text)
		case len(args) != want:
			f = faultf(t, "%s takes %d argument(s), got %d", t.text, want, len(args))
		default:
			fargs := make([]ir.FExpr, len(args))
			for k := range args {
				var g fault
				fargs[k], g = args[k].float()
				f = f.or(g)
			}
			if f.ok() {
				o.f = ir.FCall{Fn: fn, Args: fargs}
			}
		}
	}
	o.ferr = f
	return o
}
