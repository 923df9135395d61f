package ir

import "fmt"

// ElemKind is an array's element type. Both kinds are 8 bytes wide.
type ElemKind uint8

const (
	// F64 is a float64 array.
	F64 ElemKind = iota
	// I64 is an int64 array.
	I64
)

// ElemSize is the size in bytes of every array element.
const ElemSize = 8

// Array is a (possibly multi-dimensional) array in the program's virtual
// address space. Extents may depend on parameters; Resolve computes the
// concrete layout.
type Array struct {
	Name     string
	Kind     ElemKind
	DimExprs []IExpr

	// Resolved by Program.Resolve:
	Dims    []int64
	Strides []int64 // row-major, in elements
	Base    int64   // byte address, page-aligned
	Elems   int64
}

// Bytes returns the array's resolved size in bytes.
func (a *Array) Bytes() int64 { return a.Elems * ElemSize }

// Param is a program parameter: an integer bound before compilation and
// execution. Known reports whether the compiler may see its value; the
// paper's problematic loops have bounds whose values are only known at
// run time, which is modeled by Known == false.
type Param struct {
	Name  string
	Slot  int
	Val   int64
	Known bool
}

// Program is one kernel: parameters, arrays, scalars, and a statement
// body. Integer slots (parameters, loop variables, integer scalars) and
// float slots (float scalars) are numbered densely for fast execution.
type Program struct {
	Name   string
	Params []*Param
	Arrays []*Array
	Body   []Stmt

	NInt   int // integer slots allocated
	NFloat int // float slots allocated

	// Scalar name → slot registries (parameters live in ScalarsI too).
	ScalarsI map[string]int
	ScalarsF map[string]int

	Seed int64 // seed for the Randlc intrinsic stream

	resolved bool
}

// NewProgram returns an empty program.
func NewProgram(name string) *Program {
	return &Program{
		Name:     name,
		Seed:     314159265,
		ScalarsI: map[string]int{},
		ScalarsF: map[string]int{},
	}
}

// NewParam declares a parameter with its value. known controls whether
// the compiler's analyzer may use the value.
func (p *Program) NewParam(name string, val int64, known bool) ISlot {
	prm := &Param{Name: name, Slot: p.NInt, Val: val, Known: known}
	p.NInt++
	p.Params = append(p.Params, prm)
	return ISlot{Slot: prm.Slot, Name: name, Kind: SlotParam}
}

// SetParam rebinds a parameter's value (e.g. to sweep problem sizes).
func (p *Program) SetParam(name string, val int64) error {
	for _, prm := range p.Params {
		if prm.Name == name {
			prm.Val = val
			p.resolved = false
			return nil
		}
	}
	return fmt.Errorf("ir: program %s has no parameter %q", p.Name, name)
}

// ParamValue returns a parameter's current value.
func (p *Program) ParamValue(name string) (int64, bool) {
	for _, prm := range p.Params {
		if prm.Name == name {
			return prm.Val, true
		}
	}
	return 0, false
}

// NewLoopVar allocates a loop-variable slot.
func (p *Program) NewLoopVar(name string) ISlot {
	s := ISlot{Slot: p.NInt, Name: name, Kind: SlotLoopVar}
	p.NInt++
	return s
}

// NewScalarI allocates an integer scalar.
func (p *Program) NewScalarI(name string) ISlot {
	s := ISlot{Slot: p.NInt, Name: name, Kind: SlotScalarI}
	p.NInt++
	p.ScalarsI[name] = s.Slot
	return s
}

// NewScalarF allocates a float scalar.
func (p *Program) NewScalarF(name string) FScalar {
	s := FScalar{Slot: p.NFloat, Name: name}
	p.NFloat++
	p.ScalarsF[name] = s.Slot
	return s
}

// NewArrayF declares a float64 array with the given extents.
func (p *Program) NewArrayF(name string, dims ...IExpr) *Array {
	a := &Array{Name: name, Kind: F64, DimExprs: dims}
	p.Arrays = append(p.Arrays, a)
	return a
}

// NewArrayI declares an int64 array with the given extents.
func (p *Program) NewArrayI(name string, dims ...IExpr) *Array {
	a := &Array{Name: name, Kind: I64, DimExprs: dims}
	p.Arrays = append(p.Arrays, a)
	return a
}

// ArrayByName returns the named array, or nil.
func (p *Program) ArrayByName(name string) *Array {
	for _, a := range p.Arrays {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Resolve computes every array's concrete layout under the current
// parameter bindings, assigning page-aligned base addresses in
// declaration order. It must be called (directly or via the executor)
// before running or analyzing the program. The extents are refilled in
// place; the arrays without room for theirs share one new block.
func (p *Program) Resolve(pageSize int64) error {
	if pageSize <= 0 || pageSize&(pageSize-1) != 0 {
		return fmt.Errorf("ir: bad page size %d", pageSize)
	}
	need := 0
	for _, a := range p.Arrays {
		if n := len(a.DimExprs); cap(a.Dims) < n || cap(a.Strides) < n {
			need += 2 * n
		}
	}
	block := make([]int64, need)
	param := func(slot int) (int64, bool) {
		for _, prm := range p.Params {
			if prm.Slot == slot {
				return prm.Val, true
			}
		}
		return 0, false
	}
	var next int64
	for _, a := range p.Arrays {
		n := len(a.DimExprs)
		if cap(a.Dims) < n || cap(a.Strides) < n {
			a.Dims, a.Strides, block = block[:0:n], block[n:2*n:2*n], block[2*n:]
		}
		a.Dims, a.Strides = a.Dims[:0], a.Strides[:n]
		a.Elems = 1
		for _, de := range a.DimExprs {
			v, ok := constEval(de, param)
			if !ok {
				return fmt.Errorf("ir: array %s: extent %s not evaluable from parameters", a.Name, de)
			}
			if v <= 0 {
				return fmt.Errorf("ir: array %s: extent %s = %d not positive", a.Name, de, v)
			}
			a.Dims = append(a.Dims, v)
			a.Elems *= v
		}
		s := int64(1)
		for d := n - 1; d >= 0; d-- {
			a.Strides[d] = s
			s *= a.Dims[d]
		}
		a.Base = next
		bytes := a.Elems * ElemSize
		next += (bytes + pageSize - 1) / pageSize * pageSize
	}
	p.resolved = true
	return nil
}

// Resolved reports whether Resolve has run under the current bindings.
func (p *Program) Resolved() bool { return p.resolved }

// TotalBytes returns the resolved address-space footprint of all arrays.
func (p *Program) TotalBytes(pageSize int64) int64 {
	var total int64
	for _, a := range p.Arrays {
		bytes := a.Elems * ElemSize
		total += (bytes + pageSize - 1) / pageSize * pageSize
	}
	return total
}

// ConstEval evaluates an integer expression using only the given slot
// bindings. It reports false if the expression references an unbound slot
// or an array load, or divides by a constant zero (which is the executors'
// run-time trap, not a value).
func ConstEval(e IExpr, env map[int]int64) (int64, bool) {
	return constEval(e, func(slot int) (int64, bool) {
		v, ok := env[slot]
		return v, ok
	})
}

// constEval is ConstEval over the bindings value looks up.
func constEval(e IExpr, value func(slot int) (int64, bool)) (int64, bool) {
	switch x := e.(type) {
	case IConst:
		return x.Val, true
	case ISlot:
		return value(x.Slot)
	case IBin:
		a, ok := constEval(x.A, value)
		if !ok {
			return 0, false
		}
		b, ok := constEval(x.B, value)
		if !ok || b == 0 && (x.Op == IDiv || x.Op == IMod) {
			return 0, false
		}
		return applyIBin(x.Op, a, b), true
	default:
		return 0, false
	}
}

func applyIBin(op IBinOp, a, b int64) int64 {
	switch op {
	case IAdd:
		return a + b
	case ISub:
		return a - b
	case IMul:
		return a * b
	case IDiv:
		if b == 0 {
			panic("ir: division by zero")
		}
		return a / b
	case IMod:
		if b == 0 {
			panic("ir: modulo by zero")
		}
		return a % b
	case IShl:
		return a << uint(b)
	case IShr:
		return a >> uint(b)
	case IMin:
		if a < b {
			return a
		}
		return b
	case IMax:
		if a > b {
			return a
		}
		return b
	}
	panic(fmt.Sprintf("ir: unknown int op %d", op))
}

// ---- expression construction helpers ------------------------------------

// Int returns an integer literal.
func Int(v int64) IExpr { return IConst{Val: v} }

// Flt returns a float literal.
func Flt(v float64) FExpr { return FConst{Val: v} }

// AddI returns a+b.
func AddI(a, b IExpr) IExpr { return IBin{Op: IAdd, A: a, B: b} }

// SubI returns a−b.
func SubI(a, b IExpr) IExpr { return IBin{Op: ISub, A: a, B: b} }

// MulI returns a·b.
func MulI(a, b IExpr) IExpr { return IBin{Op: IMul, A: a, B: b} }

// DivI returns a/b (truncating).
func DivI(a, b IExpr) IExpr { return IBin{Op: IDiv, A: a, B: b} }

// ModI returns a mod b.
func ModI(a, b IExpr) IExpr { return IBin{Op: IMod, A: a, B: b} }

// ShlI returns a<<b.
func ShlI(a, b IExpr) IExpr { return IBin{Op: IShl, A: a, B: b} }

// ShrI returns a>>b.
func ShrI(a, b IExpr) IExpr { return IBin{Op: IShr, A: a, B: b} }

// MinI returns min(a,b).
func MinI(a, b IExpr) IExpr { return IBin{Op: IMin, A: a, B: b} }

// MaxI returns max(a,b).
func MaxI(a, b IExpr) IExpr { return IBin{Op: IMax, A: a, B: b} }

// LoadI reads an int64 array element.
func LoadI(arr *Array, idx ...IExpr) IExpr { return ILoad{Arr: arr, Idx: idx} }

// AddF returns a+b.
func AddF(a, b FExpr) FExpr { return FBin{Op: FAdd, A: a, B: b} }

// SubF returns a−b.
func SubF(a, b FExpr) FExpr { return FBin{Op: FSub, A: a, B: b} }

// MulF returns a·b.
func MulF(a, b FExpr) FExpr { return FBin{Op: FMul, A: a, B: b} }

// DivF returns a/b.
func DivF(a, b FExpr) FExpr { return FBin{Op: FDiv, A: a, B: b} }

// LoadF reads a float64 array element.
func LoadF(arr *Array, idx ...IExpr) FExpr { return FLoad{Arr: arr, Idx: idx} }

// Call invokes an intrinsic.
func Call(fn Intrinsic, args ...FExpr) FExpr { return FCall{Fn: fn, Args: args} }

// For builds a loop statement: for v = lo; v < hi; v += step.
func For(v ISlot, lo, hi IExpr, step int64, body ...Stmt) *Loop {
	if step == 0 {
		panic("ir: zero loop step")
	}
	return &Loop{Var: v.Name, Slot: v.Slot, Lo: lo, Hi: hi, Step: step, Body: body}
}

// StoreF builds a float array assignment.
func StoreF(arr *Array, idx []IExpr, rhs FExpr) Stmt { return AssignF{Arr: arr, Idx: idx, RHS: rhs} }

// StoreI builds an int array assignment.
func StoreI(arr *Array, idx []IExpr, rhs IExpr) Stmt { return AssignI{Arr: arr, Idx: idx, RHS: rhs} }

// SetF builds a float scalar assignment.
func SetF(s FScalar, rhs FExpr) Stmt { return SetScalarF{Slot: s.Slot, Name: s.Name, RHS: rhs} }

// SetI builds an int scalar assignment.
func SetI(s ISlot, rhs IExpr) Stmt { return SetScalarI{Slot: s.Slot, Name: s.Name, RHS: rhs} }
