// Package exec runs loop-nest IR programs against the simulated virtual
// memory system. Every array access goes through the VM — faulting,
// prefetching, and releasing exactly as a compiled-to-native program
// would — and every statement charges its operation count to the
// simulated CPU.
//
// There is one executor. Programs compile to a flat register bytecode
// (kcompile.go, kernel.go, kspan.go) — profile recording included —
// charging the operation counts of cost.go; a program too large for the
// bytecode's tables is a *LimitError. The reference semantics it is
// differentially tested against, a closure tree, lives with its tests
// (oracle_test.go).
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

	// Span tallies what went through spanChunk, per chunk (kspan.go).
	Span SpanStats

	// Page-run loop state (kspan.go). sites holds one cursor per
	// specialized array reference in the program, subs the incrementally
	// maintained per-dimension subscript values (indexed by each site's
	// subBase). The flags belong to the one page-run loop currently
	// executing — whatever loops such a loop contains it has absorbed, so
	// at most one is — and opSpanInit resets them on every entry.
	sites     []runSite
	subs      []int64
	spanValid bool  // sites' addr and subs hold the current iteration's values
	spanShort bool  // this entry's trip count is under spanMinTrip
	spanLeft  int64 // iterations left in the current chunk
	laneW     int64 // this entry's strip width; 0 runs chunks per iteration
	strip     strip // runLanes' lane file

	// ri/rf are the kernel interpreter's register files (kernel.go);
	// index 0 of each is a permanent zero.
	ri []int64
	rf []float64

	// prof is opProfPre's observation, held for the opProfPost that
	// follows the access (recording compiles only).
	prof struct{ now, faults, minor, hits int64 }
}

// SpanStats counts a run's page-run chunks: how many spanChunk committed
// and how many it declined to the per-element body, the iterations and
// user operations the committed ones charged in one AddUserOps each, and
// the chunks and iterations of those that ran lane-wise.
type SpanStats struct{ Chunks, Declined, Iters, UserOps, LaneChunks, LaneIters int64 }

// compiled is what compilation produces: kernel bytecode, run by runK.
// Nothing in it is written after compilation: the bytecode reads run-time
// state exclusively through the *Env passed at execution. (A recording
// compile's rec is the exception by design: it accumulates one run's
// observations, which is why such an artifact is never cached.)
type compiled struct {
	prog *ir.Program

	// kernel bytecode and its tables (kcompile.go / kernel.go / kspan.go)
	code      []kinstr
	aux       []auxDim
	haux      []hintAux
	spans     []spanLoop
	lanes     []laneLoop // per span: its lane-wise form
	nRI, nRF  int
	nSites    int
	nSubs     int
	laneNI    int // lane slots the lane files hold, per kind
	laneNF    int
	pageShift int64
	reports   []LoopReport
	rec       *profile.Recorder // opProfPost's sink; nil unless recording
}

// Reports returns the per-loop compilation reports in program order, one
// per loop.
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
	// Profile, if non-nil, runs the program with observation-only
	// profiling instrumentation (pass 1 of the two-pass profile-guided
	// mode). The recorder must have been built from the same *ir.Program.
	// The bytecode brackets every array access the recorder knows with
	// opProfPre/opProfPost, which read the VM's clock and fault tallies
	// and charge no operations, so results, times, and statistics are
	// identical to an unprofiled run. The artifact feeds that one
	// recorder: run it once, never cache it.
	Profile *profile.Recorder
}

// LimitError is Compile's error for a program that needs more entries than
// one of the kernel bytecode's 16-bit-indexed tables holds. Limit names the
// table: "int registers", "float registers", "aux table" (bounds checks),
// "hint-aux table" (fused templates) or "span table" (page-run loops).
type LimitError struct{ Limit string }

func (e *LimitError) Error() string {
	return "exec: program overflows the kernel bytecode's " + e.Limit + " (65536 entries)"
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
	a, err := Compile(prog, v.Params().PageSize, Options{})
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
	a := &Artifact{compiled: compiled{prog: prog}, pageSize: pageSize}
	kc := newKcompiler(prog, int64(bits.TrailingZeros64(uint64(pageSize))), opts.Profile)
	if err := kc.compile(prog.Body); err != nil {
		return nil, err
	}
	kc.install(a)
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
	// One allocation per element type: the scalar slots, then the register
	// file, the maintained subscripts and the lane file behind them.
	nI, nF, nR := m.prog.NInt, m.prog.NFloat, m.nRI+m.nSubs
	ints := make([]int64, nI+nR+m.laneNI*laneW)
	floats := make([]float64, nF+m.nRF+m.laneNF*laneW)
	e := &Env{
		Ints:   ints[:nI:nI],
		Floats: floats[:nF:nF],
		vm:     m.vm,
		rt:     m.rt,
		rngX:   uint64(m.prog.Seed) & ((1 << 46) - 1),
	}
	for _, p := range m.prog.Params {
		e.Ints[p.Slot] = p.Val
	}
	e.sites = make([]runSite, m.nSites)
	e.ri, e.subs, e.strip.li = ints[nI:nI+m.nRI:nI+m.nRI], ints[nI+m.nRI:nI+nR:nI+nR], ints[nI+nR:]
	e.rf, e.strip.lf = floats[nF:nF+m.nRF:nF+m.nRF], floats[nF+m.nRF:]
	m.runK(e)
	return e
}

// SpecializedSites returns how many array access sites were compiled to
// page-run cursors (zero when no loop qualified). Tests use it to prove
// specialization actually engaged.
func (m *Machine) SpecializedSites() int { return m.nSites }
