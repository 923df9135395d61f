// Package ir defines the loop-nest intermediate representation the
// prefetching compiler operates on: counted loops over arrays of float64
// or int64 elements, with affine and indirect subscripts, conditionals,
// scalar accumulators, and math intrinsics. It is the moral equivalent of
// the SUIF representation the paper's pass worked on, restricted to the
// numeric loop nests that matter for I/O prefetching.
//
// Expressions are split into two domains: IExpr produces int64 (loop
// bounds, subscripts), FExpr produces float64 (computation). The split
// keeps subscript analysis exact.
package ir

// SlotKind says what an integer slot holds, for printing and analysis.
type SlotKind uint8

const (
	// SlotLoopVar is a loop induction variable.
	SlotLoopVar SlotKind = iota
	// SlotParam is a program parameter, bound before execution. Params
	// may be marked unknown at compile time (symbolic), which is what
	// defeats the compiler's pipelining-level choice in APPBT.
	SlotParam
	// SlotScalarI is an integer scalar variable.
	SlotScalarI
)

// IExpr is an integer-valued expression.
type IExpr interface {
	isIExpr()
	String() string
}

// IConst is an integer literal.
type IConst struct{ Val int64 }

// ISlot reads an integer slot (loop variable, parameter, or scalar).
type ISlot struct {
	Slot int
	Name string
	Kind SlotKind
}

// IBinOp is the operator of an IBin node.
type IBinOp uint8

// Integer binary operators.
const (
	IAdd IBinOp = iota
	ISub
	IMul
	IDiv // truncating, like Go
	IMod
	IShl
	IShr
	IMin
	IMax
)

var iopNames = [...]string{"+", "-", "*", "/", "%", "<<", ">>", "min", "max"}

// IBin applies an integer binary operator.
type IBin struct {
	Op   IBinOp
	A, B IExpr
}

// ILoad reads an element of an int64 array (e.g. the b[i] of a[b[i]]).
type ILoad struct {
	Arr *Array
	Idx []IExpr // one per dimension
}

// IFromF truncates a float expression toward zero (C's (long) cast).
type IFromF struct{ X FExpr }

func (IConst) isIExpr() {}
func (ISlot) isIExpr()  {}
func (IBin) isIExpr()   {}
func (ILoad) isIExpr()  {}
func (IFromF) isIExpr() {}

func (e IConst) String() string { return string(appendI(nil, e)) }
func (e ISlot) String() string  { return e.Name }
func (e IBin) String() string   { return string(appendI(nil, e)) }
func (e ILoad) String() string  { return string(appendI(nil, e)) }
func (e IFromF) String() string { return string(appendI(nil, e)) }

// FExpr is a float64-valued expression.
type FExpr interface {
	isFExpr()
	String() string
}

// FConst is a float literal.
type FConst struct{ Val float64 }

// FScalar reads a float scalar variable.
type FScalar struct {
	Slot int
	Name string
}

// FLoad reads an element of a float64 array.
type FLoad struct {
	Arr *Array
	Idx []IExpr
}

// FBinOp is the operator of an FBin node.
type FBinOp uint8

// Float binary operators.
const (
	FAdd FBinOp = iota
	FSub
	FMul
	FDiv
	FMinOp
	FMaxOp
)

var fopNames = [...]string{"+", "-", "*", "/", "fmin", "fmax"}

// FBin applies a float binary operator.
type FBin struct {
	Op   FBinOp
	A, B FExpr
}

// FNeg negates.
type FNeg struct{ X FExpr }

// FromInt converts an integer expression to float.
type FromInt struct{ X IExpr }

// Intrinsic identifies a math intrinsic.
type Intrinsic uint8

// Intrinsics available to kernels. Randlc is the NAS linear congruential
// generator (returns a uniform deviate in (0,1) and advances the stream).
const (
	Sqrt Intrinsic = iota
	Abs
	Log
	Exp
	Sin
	Cos
	Pow // two arguments
	Randlc
)

var intrinsicNames = [...]string{"sqrt", "fabs", "log", "exp", "sin", "cos", "pow", "randlc"}

// Name returns the intrinsic's C-style name.
func (i Intrinsic) Name() string { return intrinsicNames[i] }

// FCall invokes a math intrinsic.
type FCall struct {
	Fn   Intrinsic
	Args []FExpr
}

func (FConst) isFExpr()  {}
func (FScalar) isFExpr() {}
func (FLoad) isFExpr()   {}
func (FBin) isFExpr()    {}
func (FNeg) isFExpr()    {}
func (FromInt) isFExpr() {}
func (FCall) isFExpr()   {}

func (e FConst) String() string  { return string(appendF(nil, e)) }
func (e FScalar) String() string { return e.Name }
func (e FLoad) String() string   { return string(appendF(nil, e)) }
func (e FBin) String() string    { return string(appendF(nil, e)) }
func (e FNeg) String() string    { return string(appendF(nil, e)) }
func (e FromInt) String() string { return string(appendF(nil, e)) }
func (e FCall) String() string   { return string(appendF(nil, e)) }

// BExpr is a boolean expression.
type BExpr interface {
	isBExpr()
	String() string
}

// CmpOp is a comparison operator.
type CmpOp uint8

// Comparison operators.
const (
	Lt CmpOp = iota
	Le
	Gt
	Ge
	Eq
	Ne
)

var cmpNames = [...]string{"<", "<=", ">", ">=", "==", "!="}

// CmpI compares two integer expressions.
type CmpI struct {
	Op   CmpOp
	A, B IExpr
}

// CmpF compares two float expressions.
type CmpF struct {
	Op   CmpOp
	A, B FExpr
}

// And is logical conjunction; Or disjunction; Not negation.
type And struct{ A, B BExpr }

// Or is logical disjunction.
type Or struct{ A, B BExpr }

// Not is logical negation.
type Not struct{ X BExpr }

func (CmpI) isBExpr() {}
func (CmpF) isBExpr() {}
func (And) isBExpr()  {}
func (Or) isBExpr()   {}
func (Not) isBExpr()  {}

func (e CmpI) String() string { return string(appendB(nil, e)) }
func (e CmpF) String() string { return string(appendB(nil, e)) }
func (e And) String() string  { return string(appendB(nil, e)) }
func (e Or) String() string   { return string(appendB(nil, e)) }
func (e Not) String() string  { return string(appendB(nil, e)) }
