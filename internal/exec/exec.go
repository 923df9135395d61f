// Package exec runs loop-nest IR programs against the simulated virtual
// memory system. Every array access goes through the VM — faulting,
// prefetching, and releasing exactly as a compiled-to-native program
// would — and every statement charges its operation count to the
// simulated CPU.
//
// There is one production executor and one oracle. Programs compile to a
// flat register bytecode (kcompile.go, kernel.go, kspan.go) by default.
// This file holds the reference semantics: a closure tree (a standard
// fast-interpreter technique: per-element dispatch is a function call,
// not a tree walk) that Options.NoFastPath selects for differential
// testing, that profile recording instruments, and whose per-statement
// operation counts the bytecode compiler charges.
package exec

import (
	"fmt"
	"math/bits"

	"repro/internal/ir"
	"repro/internal/profile"
	"repro/internal/rt"
	"repro/internal/vm"
)

// Env is the run-time state of one program execution.
type Env struct {
	Ints   []int64
	Floats []float64
	vm     *vm.VM
	rt     *rt.Layer
	rngX   uint64 // Randlc stream state (x_k, 46-bit)

	// Page-run loop state (kspan.go). sites holds one cursor per
	// specialized array reference in the program, subs the incrementally
	// maintained per-dimension subscript values (indexed by each site's
	// subBase). The flags belong to the one page-run loop currently
	// executing — such loops are innermost, so at most one is — and
	// opSpanInit resets them on every entry.
	sites     []runSite
	subs      []int64
	spanValid bool  // sites' addr and subs hold the current iteration's values
	spanShort bool  // this entry's trip count is under spanMinTrip
	spanLeft  int64 // iterations left in the current chunk

	// ri/rf are the kernel interpreter's register files (kernel.go);
	// index 0 of each is a permanent zero.
	ri []int64
	rf []float64
}

type stmtFn func(*Env)
type iFn func(*Env) int64
type fFn func(*Env) float64
type bFn func(*Env) bool

// compiled is what compilation produces. The default compilation lowers
// the whole nest to kernel bytecode (code != nil, run by runK);
// Options.NoFastPath, Options.Profile and the register-overflow fallback
// build the closure tree in body instead. Nothing in it is written after
// compilation: both forms read run-time state exclusively through the
// *Env passed at execution.
type compiled struct {
	prog *ir.Program
	body stmtFn

	// kernel bytecode and its tables (kcompile.go / kernel.go / kspan.go)
	code      []kinstr
	aux       []auxDim
	haux      []hintAux
	spans     []spanLoop
	nRI, nRF  int
	nSites    int
	nSubs     int
	pageShift int64
	reports   []LoopReport
}

// Reports returns the per-loop compilation reports in program order.
// A closure-tree compilation reports nothing: every loop is the oracle.
func (c *compiled) Reports() []LoopReport { return c.reports }

// Machine is a compiled, runnable program bound to a VM and run-time
// layer.
type Machine struct {
	compiled
	vm *vm.VM
	rt *rt.Layer
}

// Artifact is a compiled program not yet bound to any VM. It holds no
// mutable state, so one Artifact can be Bound to any number of VMs
// (sequentially or concurrently) as long as each VM has the same page
// size the program was compiled against. This is what makes a
// compile-once plan cache sound: compilation happens once, binding is a
// handful of address-space allocations per run.
type Artifact struct {
	compiled
	pageSize int64
}

// CallSites returns how many closure calls the artifact's kernel
// bytecode can make. It is 0 by construction — page-run loops and hints
// are bytecode like everything else — and is kept for callers that
// report it.
func (a *Artifact) CallSites() int { return 0 }

// Options tunes compilation.
type Options struct {
	// NoFastPath compiles the program to the closure-tree oracle instead
	// of kernel bytecode. The bytecode only removes host-side
	// interpretation overhead — simulated results, times, and statistics
	// are identical either way — so this exists for differential testing
	// and debugging, not as a semantic switch.
	NoFastPath bool

	// Profile, if non-nil, runs the program with observation-only
	// profiling instrumentation (pass 1 of the two-pass profile-guided
	// mode). The recorder must have been built from the same *ir.Program.
	// Instrumentation wraps every array access of the closure-tree
	// oracle — which by the differential contract changes nothing
	// simulated — and charges no operations, so results, times, and
	// statistics are identical to an unprofiled run.
	Profile *profile.Recorder
}

// TrapError is the panic value of a run-time trap in the executing
// program: a subscript outside its array, or an integer division by
// zero. Both executors raise it at the same point with the same text.
type TrapError struct{ msg string }

func (e *TrapError) Error() string { return e.msg }

// DivideTrap is the TrapError for an integer division by zero, which the
// Go runtime detects on the executors' behalf.
func DivideTrap() *TrapError { return &TrapError{"exec: integer divide by zero"} }

func subscriptTrap(name string, v, dim int64, d int) *TrapError {
	return &TrapError{fmt.Sprintf("exec: %s subscript %d out of range [0,%d) in dim %d", name, v, dim, d)}
}

// New compiles prog for execution on v, with compiler-inserted hints
// routed through layer. The program must already be Resolved; its arrays
// are allocated in v's address space (which must be fresh: allocation
// order defines addresses).
func New(prog *ir.Program, v *vm.VM, layer *rt.Layer) (*Machine, error) {
	return NewWith(prog, v, layer, Options{})
}

// NewWith is New with explicit compilation options.
func NewWith(prog *ir.Program, v *vm.VM, layer *rt.Layer, opts Options) (*Machine, error) {
	a, err := Compile(prog, v.Params().PageSize, opts)
	if err != nil {
		return nil, err
	}
	return a.Bind(v, layer)
}

// Compile lowers prog to a VM-independent Artifact for the given page
// size. The program is Resolved against pageSize if it has not been
// already; the Artifact holds a reference to prog (not a copy), so the
// program must not be structurally mutated while the Artifact is live.
func Compile(prog *ir.Program, pageSize int64, opts Options) (*Artifact, error) {
	if !prog.Resolved() {
		if err := prog.Resolve(pageSize); err != nil {
			return nil, err
		}
	}
	c := &compiler{}
	a := &Artifact{compiled: compiled{prog: prog}, pageSize: pageSize}
	if opts.Profile == nil && !opts.NoFastPath {
		kc := newKcompiler(c, int64(bits.TrailingZeros64(uint64(pageSize))))
		if kc.compile(prog.Body) {
			kc.install(a)
			return a, nil
		}
		if c.err != nil {
			return nil, c.err
		}
		// Register/table pressure exceeded the bytecode's limits: the
		// program runs on the oracle.
	}
	if opts.Profile != nil {
		// Profiling pass: observation wrappers around every array access.
		// The closures capture the recorder, so a profiling Artifact is
		// one-shot — never cache it.
		c.prof = newProfRec(opts.Profile)
	}
	// The closure tree: byte-for-byte the reference semantics.
	a.body = c.stmts(prog.Body)
	if c.err != nil {
		return nil, c.err
	}
	return a, nil
}

// Bind attaches the compiled artifact to a fresh VM, allocating the
// program's arrays in its address space. Allocation order defines
// addresses, so the VM must have no prior allocations and the bases must
// land exactly where Resolve placed them.
func (a *Artifact) Bind(v *vm.VM, layer *rt.Layer) (*Machine, error) {
	if ps := v.Params().PageSize; ps != a.pageSize {
		return nil, fmt.Errorf("exec: artifact compiled for page size %d, VM has %d", a.pageSize, ps)
	}
	if v.AllocatedPages() != 0 {
		return nil, fmt.Errorf("exec: VM address space already has allocations")
	}
	for _, arr := range a.prog.Arrays {
		base, err := v.Alloc(arr.Name, arr.Bytes())
		if err != nil {
			return nil, err
		}
		if base != arr.Base {
			return nil, fmt.Errorf("exec: array %s resolved at %#x but allocated at %#x", arr.Name, arr.Base, base)
		}
	}
	return &Machine{compiled: a.compiled, vm: v, rt: layer}, nil
}

// Run executes the program once. The returned Env exposes final scalar
// values.
func (m *Machine) Run() *Env {
	e := &Env{
		Ints:   make([]int64, m.prog.NInt),
		Floats: make([]float64, m.prog.NFloat),
		vm:     m.vm,
		rt:     m.rt,
		rngX:   uint64(m.prog.Seed) & ((1 << 46) - 1),
	}
	for _, p := range m.prog.Params {
		e.Ints[p.Slot] = p.Val
	}
	if m.code != nil {
		e.sites = make([]runSite, m.nSites)
		e.subs = make([]int64, m.nSubs)
		e.ri = make([]int64, m.nRI)
		e.rf = make([]float64, m.nRF)
		m.runK(e)
	} else {
		m.body(e)
	}
	return e
}

// SpecializedSites returns how many array access sites were compiled to
// page-run cursors (zero for a closure-tree compilation or when no loop
// qualified). Tests use it to prove specialization actually engaged.
func (m *Machine) SpecializedSites() int { return m.nSites }

// ---- compilation ---------------------------------------------------------

// compiler lowers IR to closures, tallying a static operation count per
// statement which the closure charges once per execution. Loads, stores
// and intrinsics carry extra weight; see opCost.
type compiler struct {
	err  error
	prof *profRec // non-nil in the profiling pass (profile.go)
}

func (c *compiler) fail(format string, args ...interface{}) {
	if c.err == nil {
		c.err = fmt.Errorf("exec: "+format, args...)
	}
}

// Costs, in machine operations (×hw.OpTime each).
const (
	costArith  = 1
	costLoad   = 2 // address + access
	costStore  = 2
	costLoop   = 2 // increment + branch, charged per iteration
	costSqrt   = 15
	costAbs    = 2
	costLog    = 25
	costExp    = 25
	costTrig   = 30
	costPow    = 40
	costRandlc = 12
)

func intrinsicCost(fn ir.Intrinsic) int64 {
	switch fn {
	case ir.Sqrt:
		return costSqrt
	case ir.Abs:
		return costAbs
	case ir.Log:
		return costLog
	case ir.Exp:
		return costExp
	case ir.Sin, ir.Cos:
		return costTrig
	case ir.Pow:
		return costPow
	case ir.Randlc:
		return costRandlc
	}
	return costArith
}

func (c *compiler) stmts(list []ir.Stmt) stmtFn {
	fns := make([]stmtFn, len(list))
	for i, s := range list {
		fns[i] = c.stmt(s)
	}
	if len(fns) == 1 {
		return fns[0]
	}
	return func(e *Env) {
		for _, f := range fns {
			f(e)
		}
	}
}

func (c *compiler) stmt(s ir.Stmt) stmtFn {
	switch x := s.(type) {
	case *ir.Loop:
		return c.loop(x)
	case ir.AssignF:
		addr, acost := c.addr(x.Arr, x.Idx)
		rhs, rcost := c.fexpr(x.RHS)
		cost := acost + rcost + costStore
		if c.prof != nil {
			if fn, ok := c.prof.storeF(x.Arr, x.Idx, addr, rhs, cost); ok {
				return fn
			}
		}
		return func(e *Env) {
			e.vm.AddUserOps(cost)
			v := rhs(e)
			e.vm.StoreF64(addr(e), v)
		}
	case ir.AssignI:
		addr, acost := c.addr(x.Arr, x.Idx)
		rhs, rcost := c.iexpr(x.RHS)
		cost := acost + rcost + costStore
		if c.prof != nil {
			if fn, ok := c.prof.storeI(x.Arr, x.Idx, addr, rhs, cost); ok {
				return fn
			}
		}
		return func(e *Env) {
			e.vm.AddUserOps(cost)
			v := rhs(e)
			e.vm.StoreI64(addr(e), v)
		}
	case ir.SetScalarF:
		rhs, rcost := c.fexpr(x.RHS)
		slot := x.Slot
		cost := rcost + costArith
		return func(e *Env) {
			e.vm.AddUserOps(cost)
			e.Floats[slot] = rhs(e)
		}
	case ir.SetScalarI:
		rhs, rcost := c.iexpr(x.RHS)
		slot := x.Slot
		cost := rcost + costArith
		return func(e *Env) {
			e.vm.AddUserOps(cost)
			e.Ints[slot] = rhs(e)
		}
	case ir.If:
		cond, ccost := c.bexpr(x.Cond)
		then := c.stmts(x.Then)
		var els stmtFn
		if len(x.Else) > 0 {
			els = c.stmts(x.Else)
		}
		return func(e *Env) {
			e.vm.AddUserOps(ccost + costArith)
			if cond(e) {
				then(e)
			} else if els != nil {
				els(e)
			}
		}
	case ir.Prefetch:
		return c.hint(x.Arr, x.Idx, x.Pages, nil, nil, nil)
	case ir.Release:
		return c.hint(nil, nil, nil, x.Arr, x.Idx, x.Pages)
	case ir.PrefetchRelease:
		return c.hint(x.PfArr, x.PfIdx, x.PfPages, x.RelArr, x.RelIdx, x.RelPages)
	default:
		c.fail("unknown statement %T", s)
		return func(*Env) {}
	}
}

func (c *compiler) loop(l *ir.Loop) stmtFn {
	if l.Step <= 0 {
		c.fail("loop %s has non-positive step %d", l.Var, l.Step)
		return func(*Env) {}
	}
	lo, locost := c.iexpr(l.Lo)
	hi, hicost := c.iexpr(l.Hi)
	head := locost + hicost
	body := c.stmts(l.Body)
	slot, step := l.Slot, l.Step
	return func(e *Env) {
		e.vm.AddUserOps(head)
		h := hi(e)
		for v := lo(e); v < h; v += step {
			e.Ints[slot] = v
			e.vm.AddUserOps(costLoop)
			body(e)
		}
	}
}

// hint compiles a prefetch and/or release statement into a run-time-layer
// call. Hint addresses are clamped, never bounds-checked: non-binding
// hints must be safe to issue speculatively past the end of an array.
func (c *compiler) hint(pfArr *ir.Array, pfIdx []ir.IExpr, pfPages ir.IExpr,
	relArr *ir.Array, relIdx []ir.IExpr, relPages ir.IExpr) stmtFn {

	var cost int64 = costArith
	var pfPage func(*Env) (int64, int64) // returns (page, npages)
	if pfArr != nil {
		f, n, k := c.hintRange(pfArr, pfIdx, pfPages)
		cost += k
		pfPage = func(e *Env) (int64, int64) { return f(e), n(e) }
	}
	var relPage func(*Env) (int64, int64)
	if relArr != nil {
		f, n, k := c.hintRange(relArr, relIdx, relPages)
		cost += k
		relPage = func(e *Env) (int64, int64) { return f(e), n(e) }
	}
	return func(e *Env) {
		e.vm.AddUserOps(cost)
		var pp, pn, rp, rn int64
		if pfPage != nil {
			pp, pn = pfPage(e)
		}
		if relPage != nil {
			rp, rn = relPage(e)
		}
		switch {
		case pn > 0 && rn > 0:
			e.rt.PrefetchRelease(pp, pn, rp, rn)
		case pn > 0:
			e.rt.Prefetch(pp, pn)
		case rn > 0:
			e.rt.Release(rp, rn)
		}
	}
}

// hintRange compiles an (array, indices, pages) triple into closures
// producing a clamped page number and a clamped page count.
func (c *compiler) hintRange(arr *ir.Array, idx []ir.IExpr, pages ir.IExpr) (func(*Env) int64, func(*Env) int64, int64) {
	lin, lcost := c.linearIndex(arr, idx)
	pagesFn, pcost := c.iexpr(pages)
	base := arr.Base
	elems := arr.Elems
	firstPage := func(e *Env) int64 {
		li := lin(e)
		if li < 0 {
			li = 0
		}
		if li >= elems {
			li = elems - 1
		}
		return e.vm.PageOf(base + li*ir.ElemSize)
	}
	npages := func(e *Env) int64 {
		lastPage := e.vm.PageOf(base + elems*ir.ElemSize - 1)
		n := pagesFn(e)
		p := firstPage(e)
		if p+n-1 > lastPage {
			n = lastPage - p + 1
		}
		return n
	}
	return firstPage, npages, lcost + pcost + 2*costArith
}

// linearIndex compiles a multi-dimensional subscript to a linear element
// index, without bounds checks (hint path only).
func (c *compiler) linearIndex(arr *ir.Array, idx []ir.IExpr) (iFn, int64) {
	if len(idx) != len(arr.Strides) {
		c.fail("array %s: %d subscripts for %d dims", arr.Name, len(idx), len(arr.Strides))
		return func(*Env) int64 { return 0 }, 0
	}
	fns := make([]iFn, len(idx))
	var cost int64
	for i, ix := range idx {
		f, k := c.iexpr(ix)
		fns[i] = f
		cost += k + costArith
	}
	strides := arr.Strides
	return func(e *Env) int64 {
		var li int64
		for i, f := range fns {
			li += f(e) * strides[i]
		}
		return li
	}, cost
}

// addr compiles a bounds-checked element address (the application path).
func (c *compiler) addr(arr *ir.Array, idx []ir.IExpr) (iFn, int64) {
	if len(idx) != len(arr.Strides) {
		c.fail("array %s: %d subscripts for %d dims", arr.Name, len(idx), len(arr.Strides))
		return func(*Env) int64 { return 0 }, 0
	}
	fns := make([]iFn, len(idx))
	var cost int64
	for i, ix := range idx {
		f, k := c.iexpr(ix)
		fns[i] = f
		cost += k + costArith
	}
	name := arr.Name
	dims := arr.Dims
	strides := arr.Strides
	base := arr.Base
	return func(e *Env) int64 {
		var li int64
		for i, f := range fns {
			v := f(e)
			if v < 0 || v >= dims[i] {
				panic(subscriptTrap(name, v, dims[i], i))
			}
			li += v * strides[i]
		}
		return base + li*ir.ElemSize
	}, cost
}

func (c *compiler) iexpr(x ir.IExpr) (iFn, int64) {
	switch e := x.(type) {
	case ir.IConst:
		v := e.Val
		return func(*Env) int64 { return v }, 0
	case ir.ISlot:
		s := e.Slot
		return func(e *Env) int64 { return e.Ints[s] }, costArith
	case ir.IBin:
		a, ac := c.iexpr(e.A)
		b, bc := c.iexpr(e.B)
		cost := ac + bc + costArith
		switch e.Op {
		case ir.IAdd:
			return func(e *Env) int64 { return a(e) + b(e) }, cost
		case ir.ISub:
			return func(e *Env) int64 { return a(e) - b(e) }, cost
		case ir.IMul:
			return func(e *Env) int64 { return a(e) * b(e) }, cost
		case ir.IDiv:
			return func(e *Env) int64 { return a(e) / b(e) }, cost
		case ir.IMod:
			return func(e *Env) int64 { return a(e) % b(e) }, cost
		case ir.IShl:
			return func(e *Env) int64 { return a(e) << uint(b(e)) }, cost
		case ir.IShr:
			return func(e *Env) int64 { return a(e) >> uint(b(e)) }, cost
		case ir.IMin:
			return func(e *Env) int64 {
				x, y := a(e), b(e)
				if x < y {
					return x
				}
				return y
			}, cost
		case ir.IMax:
			return func(e *Env) int64 {
				x, y := a(e), b(e)
				if x > y {
					return x
				}
				return y
			}, cost
		}
		c.fail("unknown int op %d", e.Op)
	case ir.ILoad:
		addr, acost := c.addr(e.Arr, e.Idx)
		if c.prof != nil {
			if fn, ok := c.prof.loadI(e.Arr, e.Idx, addr); ok {
				return fn, acost + costLoad
			}
		}
		return func(e *Env) int64 { return e.vm.LoadI64(addr(e)) }, acost + costLoad
	case ir.IFromF:
		f, fc := c.fexpr(e.X)
		return func(e *Env) int64 { return int64(f(e)) }, fc + costArith
	}
	c.fail("unknown int expr %T", x)
	return func(*Env) int64 { return 0 }, 0
}

func (c *compiler) fexpr(x ir.FExpr) (fFn, int64) {
	switch e := x.(type) {
	case ir.FConst:
		v := e.Val
		return func(*Env) float64 { return v }, 0
	case ir.FScalar:
		s := e.Slot
		return func(e *Env) float64 { return e.Floats[s] }, costArith
	case ir.FLoad:
		addr, acost := c.addr(e.Arr, e.Idx)
		if c.prof != nil {
			if fn, ok := c.prof.loadF(e.Arr, e.Idx, addr); ok {
				return fn, acost + costLoad
			}
		}
		return func(e *Env) float64 { return e.vm.LoadF64(addr(e)) }, acost + costLoad
	case ir.FBin:
		a, ac := c.fexpr(e.A)
		b, bc := c.fexpr(e.B)
		cost := ac + bc + costArith
		switch e.Op {
		case ir.FAdd:
			return func(e *Env) float64 { return a(e) + b(e) }, cost
		case ir.FSub:
			return func(e *Env) float64 { return a(e) - b(e) }, cost
		case ir.FMul:
			return func(e *Env) float64 { return a(e) * b(e) }, cost
		case ir.FDiv:
			return func(e *Env) float64 { return a(e) / b(e) }, cost
		case ir.FMinOp:
			return func(e *Env) float64 {
				x, y := a(e), b(e)
				if x < y {
					return x
				}
				return y
			}, cost
		case ir.FMaxOp:
			return func(e *Env) float64 {
				x, y := a(e), b(e)
				if x > y {
					return x
				}
				return y
			}, cost
		}
		c.fail("unknown float op %d", e.Op)
	case ir.FNeg:
		a, ac := c.fexpr(e.X)
		return func(e *Env) float64 { return -a(e) }, ac + costArith
	case ir.FromInt:
		a, ac := c.iexpr(e.X)
		return func(e *Env) float64 { return float64(a(e)) }, ac + costArith
	case ir.FCall:
		return c.call(e)
	}
	c.fail("unknown float expr %T", x)
	return func(*Env) float64 { return 0 }, 0
}

func (c *compiler) bexpr(x ir.BExpr) (bFn, int64) {
	switch e := x.(type) {
	case ir.CmpI:
		a, ac := c.iexpr(e.A)
		b, bc := c.iexpr(e.B)
		op := e.Op
		return func(e *Env) bool { return cmpI(op, a(e), b(e)) }, ac + bc + costArith
	case ir.CmpF:
		a, ac := c.fexpr(e.A)
		b, bc := c.fexpr(e.B)
		op := e.Op
		return func(e *Env) bool { return cmpF(op, a(e), b(e)) }, ac + bc + costArith
	case ir.And:
		a, ac := c.bexpr(e.A)
		b, bc := c.bexpr(e.B)
		return func(e *Env) bool { return a(e) && b(e) }, ac + bc + costArith
	case ir.Or:
		a, ac := c.bexpr(e.A)
		b, bc := c.bexpr(e.B)
		return func(e *Env) bool { return a(e) || b(e) }, ac + bc + costArith
	case ir.Not:
		a, ac := c.bexpr(e.X)
		return func(e *Env) bool { return !a(e) }, ac + costArith
	}
	c.fail("unknown bool expr %T", x)
	return func(*Env) bool { return false }, 0
}

func cmpI(op ir.CmpOp, a, b int64) bool {
	switch op {
	case ir.Lt:
		return a < b
	case ir.Le:
		return a <= b
	case ir.Gt:
		return a > b
	case ir.Ge:
		return a >= b
	case ir.Eq:
		return a == b
	default:
		return a != b
	}
}

func cmpF(op ir.CmpOp, a, b float64) bool {
	switch op {
	case ir.Lt:
		return a < b
	case ir.Le:
		return a <= b
	case ir.Gt:
		return a > b
	case ir.Ge:
		return a >= b
	case ir.Eq:
		return a == b
	default:
		return a != b
	}
}
