// The kernel machine: a flat bytecode interpreter for whole loop nests.
//
// The nest compiler (kcompile.go) lowers the entire program body — outer
// loops included — into one linear instruction slice. The steady-state
// cost of an iteration is a handful of switch dispatches over 24-byte
// instructions, and array accesses go through the VM's inlinable hot
// probes (LoadFast/StoreFast) with the ordinary faulting path only on the
// miss branch.
//
// An opcode is written down in two places, each once: runK's switch says
// what it does, and its kops entry what the compiler needs to know about
// it — its name, which of its fields are registers it reads or writes, and
// its lane-wise form if the span body may use it.
//
// Tick-exactness is the design constraint, not a best effort: simulated
// time advances only at kernel crossings (faults and hint system calls),
// and user-op charges are a plain pending sum folded in at the next
// crossing. The compiler may therefore merge static charges and move
// them across instructions that cannot fault, but never across one that
// can — the pending sum every crossing observes must equal the reference
// semantics'. That reference is the closure tree of oracle_test.go; this
// package's differential tests hold the two executions to identical
// fingerprints, tick counts, and fault statistics.
package exec

import (
	"math"

	"repro/internal/ir"
)

// irCmpOp extracts the comparison operator packed by cmpSense.
func irCmpOp(d uint16) ir.CmpOp { return ir.CmpOp(d & 0xff) }

// kop is a kernel opcode.
type kop uint8

const (
	opNop kop = iota

	// accounting / control
	opCharge   // vm.AddUserOps(imm)
	opJump     // pc = imm
	opJumpGeI  // if ri[a] >= ri[b]: pc = imm   (loop entry guard)
	opLoopEndS // ri[dst] += imm; if ri[dst] < ri[b]: Ints[a] = ri[dst]; pc = imm2
	opJCmpI    // if cmpI(op(dst), ri[a], ri[b]) == sense(dst): pc = imm
	opJCmpF    // same over rf
	opSetSlot  // Ints[imm] = ri[a]

	// integer ALU
	opIMove // ri[dst] = ri[a]
	opIConst
	opISlot // ri[dst] = Ints[imm]
	opIAdd
	opISub
	opIMul
	opIDiv
	opIMod
	opIShl
	opIShr
	opIMin
	opIMax
	opIAddImm // ri[dst] = ri[a] + imm
	opIMulImm // ri[dst] = ri[a] * imm
	opIFromF  // ri[dst] = int64(rf[a])

	// float ALU
	opFConst // rf[dst] = frombits(imm)
	opFSlot  // rf[dst] = Floats[imm]
	opSetF   // Floats[imm] = rf[a]
	opFAcc   // Floats[imm] += rf[a]
	opFAccM  // Floats[imm] += rf[a] * rf[b]
	opFAdd
	opFSub
	opFMul
	opFDiv
	opFMin
	opFMax
	opFNeg
	opFromI // rf[dst] = float64(ri[a])
	opSqrt
	opAbs
	opLog
	opExp
	opSin
	opCos
	opPow
	opRandlc
	// peephole-fused float pair (kasm.go): the multiply feeding an
	// add/subtract collapses into one dispatch when the product is dead.
	opFMAdd // rf[dst] = rf[a] + rf[b]*rf[imm]
	opFMSub // rf[dst] = rf[a] - rf[b]*rf[imm]
	// store-fused variants: identical result, plus Floats[imm2] = rf[dst]
	// (the scalar-set that followed; the register stays live).
	opFAddS
	opFSubS
	opFMAddS
	opFMSubS
	opCosS
	opSinS

	// memory: 1-D fused address+check+access (imm = array base,
	// imm2 = dim extent, a = index reg, b = auxDim for the panic path)
	opLoadF1
	opLoadI1
	opStoreF1 // value in rf[dst]
	opStoreI1 // value in ri[dst]
	// memory: N-D — per-dim checked accumulation into a linear index
	// reg, then access at base+li*8
	opIdx0   // ri[dst] = check(ri[a]) * imm      (first dim; imm = stride)
	opIdxAcc // ri[dst] += check(ri[a]) * imm
	opLoadFA // rf[dst] = load(imm + ri[a]<<3)
	opLoadIA
	opStoreFA // store(imm + ri[a]<<3, rf[dst])
	opStoreIA

	// hints
	opHintPage // ri[dst] = (imm + clamp(ri[a], [0,imm2))<<3) >> pageShift
	opHintN    // n=ri[a], p=ri[b]; if p+n-1 > imm: n = imm-p+1; ri[dst]=n
	opHint     // pp=ri[a] pn=ri[b] rp=ri[dst] rn=ri[imm]: oracle dispatch

	// fused template kernels (haux[b] describes the arrays)
	opHintLoad1 // charge imm; li = addrArr[ri[a]] (checked); clamped single/short prefetch
	opFAccDot   // charge imm; Floats[dst] += A[ri[a]] * X[C[ri[a]]] (all checked)

	// page-run loops (kspan.go): spans[b] (spans[dst] for opSpanEnter)
	// describes the loop, dst/a hold the induction and bound registers
	// as in opLoopEndS
	opSpanInit  // reset per-entry state; if ri[b]-ri[a] < imm2: short entry, pc = imm
	opSpanEnter // k = spanChunk(v=ri[a], lo=ri[imm2], h=ri[b]); if declined: pc = imm
	opSpanNext  // ri[dst] += step; in chunk: pc = imm; else if ri[dst] < ri[a]: pc = imm2
	opSpanSlow  // ri[dst] += step; if ri[dst] < ri[a]: pc = imm (short entry) or imm2
	// span-body accesses through the cursor of site imm, advancing it
	opLoadFS
	opLoadIS
	opStoreFS // value in rf[dst]
	opStoreIS // value in ri[dst]

	// profile recording (Options.Profile): the pair brackets one array
	// access; neither charges anything
	opProfPre  // e.prof = vm.ProfileSnapshot()
	opProfPost // rec.Access(site imm, element ri[a], e.prof .. vm.ProfileSnapshot())

	// opLabel is a compile-time jump-target marker (imm = label id). It
	// survives buffer splicing — positions are only fixed when assemble
	// strips the markers and patches the jumps — and never reaches runK.
	opLabel
)

// role says what one field of an instruction holds: a register the
// instruction reads, writes or both, int or float, or a jump target. A
// field with no role holds an immediate, a slot, a table index or nothing.
type role uint8

const (
	rd  role = 1 << iota // a register it reads
	wr                   // a register it writes
	flt                  // a float register (else int)
	lbl                  // a jump target: a label id until assemble, then a pc

	iR, iW, iRW = rd, wr, rd | wr
	fR, fW      = flt | rd, flt | wr
)

// kind is 0 for an int register, 1 for a float one.
func (r role) kind() int {
	if r&flt != 0 {
		return 1
	}
	return 0
}

// roles gives the role of each of an instruction's fields in the order of
// kinstr.fields: dst, a, b, imm, imm2.
type roles [5]role

// kopInfo is everything the compiler needs to know about an opcode besides
// what runK does with it: its name (the tally and the OOC_KDUMP dump), its
// field roles (the peephole census, assembly and the lane slot numbering),
// and, for the span-body subset runLanes runs, the lane handler and the
// scalar it touches: how ('r' read, 's' set, 'a' accumulated), its kind
// ('i', 'f'), and '2' when the slot is imm2 rather than imm. A set is done
// from the chunk's last lane, not by the handler.
type kopInfo struct {
	name  string
	roles roles
	touch string
	lane  func(e *Env, x *strip, in *kinstr)
}

// kops describes every opcode, once.
var kops = [...]kopInfo{
	opNop:       {"Nop", roles{}, "", nil},
	opCharge:    {"Charge", roles{}, "", nil},
	opJump:      {"Jump", roles{3: lbl}, "", nil},
	opJumpGeI:   {"JumpGeI", roles{0, iR, iR, lbl}, "", nil},
	opLoopEndS:  {"LoopEndS", roles{iRW, 0, iR, 0, lbl}, "", nil},
	opJCmpI:     {"JCmpI", roles{0, iR, iR, lbl}, "", nil},
	opJCmpF:     {"JCmpF", roles{0, fR, fR, lbl}, "", nil},
	opSetSlot:   {"SetSlot", roles{0, iR}, "si", setOnly},
	opIMove:     {"IMove", roles{iW, iR}, "", nil},
	opIConst:    {"IConst", roles{iW}, "", nil},
	opISlot:     {"ISlot", roles{iW}, "ri", func(e *Env, x *strip, in *kinstr) { fill(x.i(0), e.Ints[in.imm]) }},
	opIAdd:      {"IAdd", roles{iW, iR, iR}, "", func(_ *Env, x *strip, _ *kinstr) { lane2(x.i(0), x.i(1), x.i(2), add[int64]) }},
	opISub:      {"ISub", roles{iW, iR, iR}, "", func(_ *Env, x *strip, _ *kinstr) { lane2(x.i(0), x.i(1), x.i(2), sub[int64]) }},
	opIMul:      {"IMul", roles{iW, iR, iR}, "", func(_ *Env, x *strip, _ *kinstr) { lane2(x.i(0), x.i(1), x.i(2), mul[int64]) }},
	opIDiv:      {"IDiv", roles{iW, iR, iR}, "", nil},
	opIMod:      {"IMod", roles{iW, iR, iR}, "", nil},
	opIShl:      {"IShl", roles{iW, iR, iR}, "", func(_ *Env, x *strip, _ *kinstr) { lane2(x.i(0), x.i(1), x.i(2), shl) }},
	opIShr:      {"IShr", roles{iW, iR, iR}, "", func(_ *Env, x *strip, _ *kinstr) { lane2(x.i(0), x.i(1), x.i(2), shr) }},
	opIMin:      {"IMin", roles{iW, iR, iR}, "", func(_ *Env, x *strip, _ *kinstr) { lane2(x.i(0), x.i(1), x.i(2), imin) }},
	opIMax:      {"IMax", roles{iW, iR, iR}, "", func(_ *Env, x *strip, _ *kinstr) { lane2(x.i(0), x.i(1), x.i(2), imax) }},
	opIAddImm:   {"IAddImm", roles{iW, iR}, "", func(_ *Env, x *strip, in *kinstr) { lane1(x.i(0), x.i(1), func(a int64) int64 { return a + in.imm }) }},
	opIMulImm:   {"IMulImm", roles{iW, iR}, "", func(_ *Env, x *strip, in *kinstr) { lane1(x.i(0), x.i(1), func(a int64) int64 { return a * in.imm }) }},
	opIFromF:    {"IFromF", roles{iW, fR}, "", func(_ *Env, x *strip, _ *kinstr) { lane1(x.i(0), x.f(1), toInt) }},
	opFConst:    {"FConst", roles{fW}, "", nil},
	opFSlot:     {"FSlot", roles{fW}, "rf", func(e *Env, x *strip, in *kinstr) { fill(x.f(0), e.Floats[in.imm]) }},
	opSetF:      {"SetF", roles{0, fR}, "sf", setOnly},
	opFAcc:      {"FAcc", roles{0, fR}, "af", func(e *Env, x *strip, in *kinstr) { e.Floats[in.imm] = sum(e.Floats[in.imm], x.f(1)) }},
	opFAccM:     {"FAccM", roles{0, fR, fR}, "af", func(e *Env, x *strip, in *kinstr) { e.Floats[in.imm] = dot(e.Floats[in.imm], x.f(1), x.f(2)) }},
	opFAdd:      {"FAdd", roles{fW, fR, fR}, "", func(_ *Env, x *strip, _ *kinstr) { lane2(x.f(0), x.f(1), x.f(2), add[float64]) }},
	opFSub:      {"FSub", roles{fW, fR, fR}, "", func(_ *Env, x *strip, _ *kinstr) { lane2(x.f(0), x.f(1), x.f(2), sub[float64]) }},
	opFMul:      {"FMul", roles{fW, fR, fR}, "", func(_ *Env, x *strip, _ *kinstr) { lane2(x.f(0), x.f(1), x.f(2), mul[float64]) }},
	opFDiv:      {"FDiv", roles{fW, fR, fR}, "", func(_ *Env, x *strip, _ *kinstr) { lane2(x.f(0), x.f(1), x.f(2), div) }},
	opFMin:      {"FMin", roles{fW, fR, fR}, "", func(_ *Env, x *strip, _ *kinstr) { lane2(x.f(0), x.f(1), x.f(2), fmin) }},
	opFMax:      {"FMax", roles{fW, fR, fR}, "", func(_ *Env, x *strip, _ *kinstr) { lane2(x.f(0), x.f(1), x.f(2), fmax) }},
	opFNeg:      {"FNeg", roles{fW, fR}, "", func(_ *Env, x *strip, _ *kinstr) { lane1(x.f(0), x.f(1), neg) }},
	opFromI:     {"FromI", roles{fW, iR}, "", func(_ *Env, x *strip, _ *kinstr) { lane1(x.f(0), x.i(1), toFloat) }},
	opSqrt:      {"Sqrt", roles{fW, fR}, "", func(_ *Env, x *strip, _ *kinstr) { lane1(x.f(0), x.f(1), math.Sqrt) }},
	opAbs:       {"Abs", roles{fW, fR}, "", func(_ *Env, x *strip, _ *kinstr) { lane1(x.f(0), x.f(1), math.Abs) }},
	opLog:       {"Log", roles{fW, fR}, "", func(_ *Env, x *strip, _ *kinstr) { lane1(x.f(0), x.f(1), math.Log) }},
	opExp:       {"Exp", roles{fW, fR}, "", func(_ *Env, x *strip, _ *kinstr) { lane1(x.f(0), x.f(1), math.Exp) }},
	opSin:       {"Sin", roles{fW, fR}, "", func(_ *Env, x *strip, _ *kinstr) { lane1(x.f(0), x.f(1), math.Sin) }},
	opCos:       {"Cos", roles{fW, fR}, "", func(_ *Env, x *strip, _ *kinstr) { lane1(x.f(0), x.f(1), math.Cos) }},
	opPow:       {"Pow", roles{fW, fR, fR}, "", func(_ *Env, x *strip, _ *kinstr) { lane2(x.f(0), x.f(1), x.f(2), math.Pow) }},
	opRandlc:    {"Randlc", roles{fW}, "", func(e *Env, x *strip, _ *kinstr) { lane1(x.f(0), x.f(0), func(float64) float64 { return e.randlc() }) }},
	opFMAdd:     {"FMAdd", roles{fW, fR, fR, fR}, "", func(_ *Env, x *strip, _ *kinstr) { lane3(x.f(0), x.f(1), x.f(2), x.f(3), madd) }},
	opFMSub:     {"FMSub", roles{fW, fR, fR, fR}, "", func(_ *Env, x *strip, _ *kinstr) { lane3(x.f(0), x.f(1), x.f(2), x.f(3), msub) }},
	opFAddS:     {"FAddS", roles{fW, fR, fR}, "sf2", func(_ *Env, x *strip, _ *kinstr) { lane2(x.f(0), x.f(1), x.f(2), add[float64]) }},
	opFSubS:     {"FSubS", roles{fW, fR, fR}, "sf2", func(_ *Env, x *strip, _ *kinstr) { lane2(x.f(0), x.f(1), x.f(2), sub[float64]) }},
	opFMAddS:    {"FMAddS", roles{fW, fR, fR, fR}, "sf2", func(_ *Env, x *strip, _ *kinstr) { lane3(x.f(0), x.f(1), x.f(2), x.f(3), madd) }},
	opFMSubS:    {"FMSubS", roles{fW, fR, fR, fR}, "sf2", func(_ *Env, x *strip, _ *kinstr) { lane3(x.f(0), x.f(1), x.f(2), x.f(3), msub) }},
	opCosS:      {"CosS", roles{fW, fR}, "sf2", func(_ *Env, x *strip, _ *kinstr) { lane1(x.f(0), x.f(1), math.Cos) }},
	opSinS:      {"SinS", roles{fW, fR}, "sf2", func(_ *Env, x *strip, _ *kinstr) { lane1(x.f(0), x.f(1), math.Sin) }},
	opLoadF1:    {"LoadF1", roles{fW, iR}, "", nil},
	opLoadI1:    {"LoadI1", roles{iW, iR}, "", nil},
	opStoreF1:   {"StoreF1", roles{fR, iR}, "", nil},
	opStoreI1:   {"StoreI1", roles{iR, iR}, "", nil},
	opIdx0:      {"Idx0", roles{iW, iR}, "", nil},
	opIdxAcc:    {"IdxAcc", roles{iRW, iR}, "", nil},
	opLoadFA:    {"LoadFA", roles{fW, iR}, "", nil},
	opLoadIA:    {"LoadIA", roles{iW, iR}, "", nil},
	opStoreFA:   {"StoreFA", roles{fR, iR}, "", nil},
	opStoreIA:   {"StoreIA", roles{iR, iR}, "", nil},
	opHintPage:  {"HintPage", roles{iW, iR}, "", nil},
	opHintN:     {"HintN", roles{iW, iR, iR}, "", nil},
	opHint:      {"Hint", roles{iR, iR, iR, iR}, "", nil},
	opHintLoad1: {"HintLoad1", roles{0, iR}, "", nil},
	opFAccDot:   {"FAccDot", roles{0, iR}, "", nil},
	opSpanInit:  {"SpanInit", roles{0, iR, iR, lbl}, "", nil},
	opSpanEnter: {"SpanEnter", roles{0, iR, iR, lbl, iR}, "", nil},
	opSpanNext:  {"SpanNext", roles{iRW, iR, 0, lbl, lbl}, "", nil},
	opSpanSlow:  {"SpanSlow", roles{iRW, iR, 0, lbl, lbl}, "", nil},
	opLoadFS:    {"LoadFS", roles{fW}, "", func(e *Env, x *strip, in *kinstr) { loadLanes(x.f(0), &e.sites[in.imm], math.Float64frombits) }},
	opLoadIS:    {"LoadIS", roles{iW}, "", func(e *Env, x *strip, in *kinstr) { loadLanes(x.i(0), &e.sites[in.imm], fromWord) }},
	opStoreFS:   {"StoreFS", roles{fR}, "", func(e *Env, x *strip, in *kinstr) { storeLanes(x.f(0), &e.sites[in.imm], math.Float64bits) }},
	opStoreIS:   {"StoreIS", roles{iR}, "", func(e *Env, x *strip, in *kinstr) { storeLanes(x.i(0), &e.sites[in.imm], toWord) }},
	opProfPre:   {"ProfPre", roles{}, "", nil},
	opProfPost:  {"ProfPost", roles{0, iR}, "", nil},
	opLabel:     {"Label", roles{}, "", nil},
}

// kinstr is one kernel instruction. Jump targets hold label ids until
// kcompiler.assemble patches them to absolute pcs.
type kinstr struct {
	op        kop
	dst, a, b uint16
	imm, imm2 int64
}

// fields returns the instruction's five fields as register numbers; which
// of them are registers is kops' business.
func (in *kinstr) fields() [5]uint16 {
	return [5]uint16{in.dst, in.a, in.b, uint16(in.imm), uint16(in.imm2)}
}

// auxDim carries the cold-path context for one (array, dimension) bounds
// check: everything needed to reproduce the oracle's panic text.
type auxDim struct {
	name string
	dim  int64
	d    int
}

// hintAux describes the arrays of a fused template kernel. For
// opHintLoad1, c* is the 1-D address array and x* the prefetched array;
// for opFAccDot, a* is the dense operand, c* the index array, x* the
// indirectly loaded operand.
type hintAux struct {
	aBase, aDim int64
	aRef        int
	cBase, cDim int64
	cRef        int
	xBase, xDim int64
	xRef        int
	lastPage    int64 // last page of x, for the n>1 prefetch clamp
	pages       int64 // compile-time page count of the prefetch
}

func (m *Machine) panicIdx(ref int, v int64) {
	a := &m.aux[ref]
	panic(subscriptTrap(a.name, v, a.dim, a.d))
}

// cmpSense packs a CmpOp and a jump sense into a kinstr dst field.
func cmpSense(op ir.CmpOp, jumpIfTrue bool) uint16 {
	s := uint16(op)
	if jumpIfTrue {
		s |= 1 << 8
	}
	return s
}

// runK executes the machine's kernel code against e. The interpreter is
// one flat loop; every case stays small enough that the hot ops compile
// to a load, a switch, and a few machine instructions.
func (m *Machine) runK(e *Env) {
	code := m.code
	v := e.vm
	ints := e.Ints
	floats := e.Floats
	ri := e.ri
	rf := e.rf
	shift := m.pageShift
	for pc := 0; pc < len(code); {
		in := &code[pc]
		pc++
		if tallyOn {
			tally.ops[in.op]++
		}
		switch in.op {
		case opCharge:
			v.AddUserOps(in.imm)
		case opJump:
			pc = int(in.imm)
		case opJumpGeI:
			if ri[in.a] >= ri[in.b] {
				pc = int(in.imm)
			}
		case opLoopEndS:
			// The induction-slot store rides the back edge (the preheader
			// stored the first value): between the back edge and the next
			// body instruction nothing executes, so the slot is updated at
			// an indistinguishable point.
			x := ri[in.dst] + in.imm
			ri[in.dst] = x
			if x < ri[in.b] {
				ints[in.a] = x
				pc = int(in.imm2)
			}
		case opJCmpI:
			if cmpI(irCmpOp(in.dst), ri[in.a], ri[in.b]) == (in.dst&(1<<8) != 0) {
				pc = int(in.imm)
			}
		case opJCmpF:
			if cmpF(irCmpOp(in.dst), rf[in.a], rf[in.b]) == (in.dst&(1<<8) != 0) {
				pc = int(in.imm)
			}
		case opSetSlot:
			ints[in.imm] = ri[in.a]

		case opIMove:
			ri[in.dst] = ri[in.a]
		case opIConst:
			ri[in.dst] = in.imm
		case opISlot:
			ri[in.dst] = ints[in.imm]
		case opIAdd:
			ri[in.dst] = ri[in.a] + ri[in.b]
		case opISub:
			ri[in.dst] = ri[in.a] - ri[in.b]
		case opIMul:
			ri[in.dst] = ri[in.a] * ri[in.b]
		case opIDiv:
			ri[in.dst] = ri[in.a] / ri[in.b]
		case opIMod:
			ri[in.dst] = ri[in.a] % ri[in.b]
		case opIShl:
			ri[in.dst] = ri[in.a] << uint(ri[in.b])
		case opIShr:
			ri[in.dst] = ri[in.a] >> uint(ri[in.b])
		case opIMin:
			x, y := ri[in.a], ri[in.b]
			if y < x {
				x = y
			}
			ri[in.dst] = x
		case opIMax:
			x, y := ri[in.a], ri[in.b]
			if y > x {
				x = y
			}
			ri[in.dst] = x
		case opIAddImm:
			ri[in.dst] = ri[in.a] + in.imm
		case opIMulImm:
			ri[in.dst] = ri[in.a] * in.imm
		case opIFromF:
			ri[in.dst] = int64(rf[in.a])

		case opFConst:
			rf[in.dst] = math.Float64frombits(uint64(in.imm))
		case opFSlot:
			rf[in.dst] = floats[in.imm]
		case opSetF:
			floats[in.imm] = rf[in.a]
		case opFAcc:
			floats[in.imm] += rf[in.a]
		case opFAccM:
			floats[in.imm] += rf[in.a] * rf[in.b]
		case opFAdd:
			rf[in.dst] = rf[in.a] + rf[in.b]
		case opFSub:
			rf[in.dst] = rf[in.a] - rf[in.b]
		case opFMul:
			rf[in.dst] = rf[in.a] * rf[in.b]
		case opFDiv:
			rf[in.dst] = rf[in.a] / rf[in.b]
		case opFMin:
			// Mirror the oracle's `x < y ? x : y` exactly, NaN included:
			// when the comparison is false the RIGHT operand is the result.
			x, y := rf[in.a], rf[in.b]
			if !(x < y) {
				x = y
			}
			rf[in.dst] = x
		case opFMax:
			x, y := rf[in.a], rf[in.b]
			if !(x > y) {
				x = y
			}
			rf[in.dst] = x
		case opFNeg:
			rf[in.dst] = -rf[in.a]
		case opFromI:
			rf[in.dst] = float64(ri[in.a])
		case opSqrt:
			rf[in.dst] = math.Sqrt(rf[in.a])
		case opAbs:
			rf[in.dst] = math.Abs(rf[in.a])
		case opLog:
			rf[in.dst] = math.Log(rf[in.a])
		case opExp:
			rf[in.dst] = math.Exp(rf[in.a])
		case opSin:
			rf[in.dst] = math.Sin(rf[in.a])
		case opCos:
			rf[in.dst] = math.Cos(rf[in.a])
		case opPow:
			rf[in.dst] = math.Pow(rf[in.a], rf[in.b])
		case opRandlc:
			rf[in.dst] = e.randlc()
		case opFMAdd:
			rf[in.dst] = rf[in.a] + rf[in.b]*rf[in.imm]
		case opFMSub:
			rf[in.dst] = rf[in.a] - rf[in.b]*rf[in.imm]
		case opFAddS:
			x := rf[in.a] + rf[in.b]
			rf[in.dst] = x
			floats[in.imm2] = x
		case opFSubS:
			x := rf[in.a] - rf[in.b]
			rf[in.dst] = x
			floats[in.imm2] = x
		case opFMAddS:
			x := rf[in.a] + rf[in.b]*rf[in.imm]
			rf[in.dst] = x
			floats[in.imm2] = x
		case opFMSubS:
			x := rf[in.a] - rf[in.b]*rf[in.imm]
			rf[in.dst] = x
			floats[in.imm2] = x
		case opCosS:
			x := math.Cos(rf[in.a])
			rf[in.dst] = x
			floats[in.imm2] = x
		case opSinS:
			x := math.Sin(rf[in.a])
			rf[in.dst] = x
			floats[in.imm2] = x

		case opLoadF1:
			ix := ri[in.a]
			if ix < 0 || ix >= in.imm2 {
				m.panicIdx(int(in.b), ix)
			}
			addr := in.imm + ix<<3
			w, ok := v.LoadFast(addr)
			if !ok {
				w = v.Load(addr)
			}
			rf[in.dst] = math.Float64frombits(w)
		case opLoadI1:
			ix := ri[in.a]
			if ix < 0 || ix >= in.imm2 {
				m.panicIdx(int(in.b), ix)
			}
			addr := in.imm + ix<<3
			w, ok := v.LoadFast(addr)
			if !ok {
				w = v.Load(addr)
			}
			ri[in.dst] = int64(w)
		case opStoreF1:
			ix := ri[in.a]
			if ix < 0 || ix >= in.imm2 {
				m.panicIdx(int(in.b), ix)
			}
			addr := in.imm + ix<<3
			if !v.StoreFast(addr, math.Float64bits(rf[in.dst])) {
				v.Store(addr, math.Float64bits(rf[in.dst]))
			}
		case opStoreI1:
			ix := ri[in.a]
			if ix < 0 || ix >= in.imm2 {
				m.panicIdx(int(in.b), ix)
			}
			addr := in.imm + ix<<3
			if !v.StoreFast(addr, uint64(ri[in.dst])) {
				v.Store(addr, uint64(ri[in.dst]))
			}

		case opIdx0:
			x := ri[in.a]
			if x < 0 || x >= in.imm2 {
				m.panicIdx(int(in.b), x)
			}
			ri[in.dst] = x * in.imm
		case opIdxAcc:
			x := ri[in.a]
			if x < 0 || x >= in.imm2 {
				m.panicIdx(int(in.b), x)
			}
			ri[in.dst] += x * in.imm
		case opLoadFA:
			addr := in.imm + ri[in.a]<<3
			w, ok := v.LoadFast(addr)
			if !ok {
				w = v.Load(addr)
			}
			rf[in.dst] = math.Float64frombits(w)
		case opLoadIA:
			addr := in.imm + ri[in.a]<<3
			w, ok := v.LoadFast(addr)
			if !ok {
				w = v.Load(addr)
			}
			ri[in.dst] = int64(w)
		case opStoreFA:
			addr := in.imm + ri[in.a]<<3
			if !v.StoreFast(addr, math.Float64bits(rf[in.dst])) {
				v.Store(addr, math.Float64bits(rf[in.dst]))
			}
		case opStoreIA:
			addr := in.imm + ri[in.a]<<3
			if !v.StoreFast(addr, uint64(ri[in.dst])) {
				v.Store(addr, uint64(ri[in.dst]))
			}

		case opSpanInit:
			e.spanValid = false
			e.spanShort = ri[in.b]-ri[in.a] < in.imm2
			if e.spanShort {
				pc = int(in.imm)
			}
		case opSpanEnter:
			sp, ll := &m.spans[in.dst], &m.lanes[in.dst]
			k := spanChunk(e, sp, ll, ri, 1<<(shift-3), ri[in.a], ri[uint16(in.imm2)], ri[in.b])
			if k == 0 {
				e.Span.Declined++
				pc = int(in.imm)
			} else if e.laneW > 0 {
				// The whole chunk runs here; opSpanNext finds its last
				// iteration done and moves on exactly as after k passes.
				m.runLanes(e, sp, ll, ri[in.a], k)
				ri[in.a] += (k - 1) * sp.step
				e.Span.LaneChunks++
				e.Span.LaneIters += k
				k, pc = 1, int(ll.next)
			}
			e.spanLeft = k
		case opSpanNext:
			sp := &m.spans[in.b]
			x := ri[in.dst] + sp.step
			ri[in.dst] = x
			// Nothing reads the induction slot inside a chunk (the body uses
			// the register), so it is stored when the chunk ends.
			if e.spanLeft--; e.spanLeft > 0 {
				pc = int(in.imm)
			} else if x < ri[in.a] {
				ints[sp.slot] = x
				pc = int(in.imm2)
			} else {
				ints[sp.slot] = x - sp.step
			}
		case opSpanSlow:
			sp := &m.spans[in.b]
			x := ri[in.dst] + sp.step
			ri[in.dst] = x
			if x < ri[in.a] {
				ints[sp.slot] = x
				if e.spanShort {
					pc = int(in.imm)
				} else {
					if e.spanValid {
						advanceSites(e, sp, 1)
					}
					pc = int(in.imm2)
				}
			}
		case opLoadFS:
			// A span body is straight-line, so each access executes exactly
			// once per iteration and advances its own cursor.
			s := &e.sites[in.imm]
			rf[in.dst] = math.Float64frombits(s.span[s.pos])
			s.pos += s.delta
		case opLoadIS:
			s := &e.sites[in.imm]
			ri[in.dst] = int64(s.span[s.pos])
			s.pos += s.delta
		case opStoreFS:
			s := &e.sites[in.imm]
			s.span[s.pos] = math.Float64bits(rf[in.dst])
			s.pos += s.delta
		case opStoreIS:
			s := &e.sites[in.imm]
			s.span[s.pos] = uint64(ri[in.dst])
			s.pos += s.delta

		case opProfPre:
			p := &e.prof
			p.now, p.faults, p.minor, p.hits = v.ProfileSnapshot()
		case opProfPost:
			p := &e.prof
			now, faults, minor, hits := v.ProfileSnapshot()
			m.rec.Access(int(in.imm), ri[in.a], p.now, now, faults-p.faults, minor-p.minor, hits-p.hits)

		case opHintPage:
			li := ri[in.a]
			if li < 0 {
				li = 0
			}
			if li >= in.imm2 {
				li = in.imm2 - 1
			}
			ri[in.dst] = (in.imm + li<<3) >> shift
		case opHintN:
			n := ri[in.a]
			if p := ri[in.b]; p+n-1 > in.imm {
				n = in.imm - p + 1
			}
			ri[in.dst] = n
		case opHint:
			pp, pn := ri[in.a], ri[in.b]
			rp, rn := ri[in.dst], ri[in.imm]
			switch {
			case pn > 0 && rn > 0:
				e.rt.PrefetchRelease(pp, pn, rp, rn)
			case pn > 0:
				e.rt.Prefetch(pp, pn)
			case rn > 0:
				e.rt.Release(rp, rn)
			}

		case opHintLoad1:
			h := &m.haux[in.b]
			v.AddUserOps(in.imm)
			ix := ri[in.a]
			if ix < 0 || ix >= h.cDim {
				m.panicIdx(h.cRef, ix)
			}
			addr := h.cBase + ix<<3
			w, ok := v.LoadFast(addr)
			if !ok {
				w = v.Load(addr)
			}
			li := int64(w)
			if li < 0 {
				li = 0
			}
			if li >= h.xDim {
				li = h.xDim - 1
			}
			page := (h.xBase + li<<3) >> shift
			n := h.pages
			if page+n-1 > h.lastPage {
				n = h.lastPage - page + 1
			}
			if n == 1 {
				e.rt.Prefetch1(page)
			} else {
				e.rt.Prefetch(page, n)
			}
		case opFAccDot:
			h := &m.haux[in.b]
			v.AddUserOps(in.imm)
			ix := ri[in.a]
			if ix < 0 || ix >= h.aDim {
				m.panicIdx(h.aRef, ix)
			}
			addr := h.aBase + ix<<3
			wa, ok := v.LoadFast(addr)
			if !ok {
				wa = v.Load(addr)
			}
			if ix >= h.cDim {
				m.panicIdx(h.cRef, ix)
			}
			addr = h.cBase + ix<<3
			wc, ok2 := v.LoadFast(addr)
			if !ok2 {
				wc = v.Load(addr)
			}
			li := int64(wc)
			if li < 0 || li >= h.xDim {
				m.panicIdx(h.xRef, li)
			}
			addr = h.xBase + li<<3
			wx, ok3 := v.LoadFast(addr)
			if !ok3 {
				wx = v.Load(addr)
			}
			floats[in.dst] += math.Float64frombits(wa) * math.Float64frombits(wx)
		}
	}
}
