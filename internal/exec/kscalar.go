// Scalar-loop promotion: a kernel loop whose compiled body is pure ALU
// over registers and scalar slots — no memory accesses, no calls, no
// hints, no control flow — contains no kernel crossings, so nothing
// inside one iteration (or the whole loop) is observable from the
// simulation. That licenses two exact rewrites that cut the interpreter
// dispatch count of the hottest scalar loops (the FFT bit-reversal
// inner loop runs about a million such iterations per transform):
//
//   - Charge deferral: the per-iteration opCharge is dropped and the
//     loop charges perIter·trips once on the exit path instead. The
//     accumulated AddUserOps sum the next crossing observes is the same
//     either way, because no crossing happens between loop entry and
//     the first instruction after the loop.
//
//   - Scalar register promotion: integer slot stores are deferred to
//     the exit path and loop-carried slot reads become registers, with
//     an opIMove on the back edge playing the φ. Intermediate Ints[]
//     states are unobservable for the same reason; the exit stores
//     reproduce the oracle's final state, and the zero-trip path skips
//     them exactly as the oracle's untaken loop writes nothing.
//
// The analysis leans on two properties of the body compiler: every ALU
// destination is a fresh register (so a register is written at most
// once per iteration, except the induction register and the φ moves
// added here), and slot reads bind, so a body holds at most one opISlot
// per slot and always before any opSetSlot to it.
package exec

// scalarPromo is the rewritten layout of one promoted loop body.
type scalarPromo struct {
	pre     []kinstr // hoisted slot reads, emitted once after the trip guard
	body    []kinstr // transformed body: charges and deferred stores removed
	post    []kinstr // deferred final stores, on the ≥1-trip exit path
	perIter int64    // per-iteration charge, applied once as perIter·trips
}

// promoteScalarLoop analyzes the compiled body of one kernel loop and
// returns its promoted form, or nil when the body is not pure scalar
// straight-line code or the rewrite would remove no dispatch. rv is the
// loop's induction register: its value at loop exit differs from its
// value inside the final iteration, so a slot whose final store would
// source it — or a register the back-edge φ moves overwrite — keeps its
// in-body stores instead of deferring them.
func promoteScalarLoop(body []kinstr, rv uint16) *scalarPromo {
	var perIter int64
	var sets, reads []int // instruction indices of opSetSlot / opISlot
	nCharge := 0
	for i := range body {
		switch body[i].op {
		case opCharge:
			perIter += body[i].imm
			nCharge++
		case opSetSlot:
			sets = append(sets, i)
		case opISlot:
			reads = append(reads, i)
		case opIMove, opIAdd, opISub, opIMul, opIDiv, opIMod, opIShl, opIShr,
			opIMin, opIMax, opIAddImm, opIMulImm, opIFromF, opIdx3,
			opFSlot, opSetF, opFAcc, opFAccM, opFAdd, opFSub, opFMul, opFDiv,
			opFMin, opFMax, opFNeg, opFromI, opSqrt, opAbs, opLog, opExp,
			opSin, opCos, opPow, opRandlc:
			// Register-pure, or side effects (float slots, the RNG) that
			// cannot fault: charges and integer slot state move across
			// these freely. Float slot stores stay in place — only the
			// integer side is promoted.
		default:
			return nil
		}
	}
	if len(sets) == 0 && nCharge == 0 {
		return nil
	}

	// Last store per slot, remembering first-set order for determinism.
	lastSet := map[int64]int{}
	var slotOrder []int64
	for _, i := range sets {
		s := body[i].imm
		if _, ok := lastSet[s]; !ok {
			slotOrder = append(slotOrder, s)
		}
		lastSet[s] = i
	}

	// A deferred store sources its register at loop exit, after the final
	// back edge. The φ moves overwrite the registers holding loop-carried
	// reads, and opLoopEndS advances rv past the last body value, so a
	// store sourcing either keeps running in the body. (moved is computed
	// as if every carried slot were promoted; a slot this conservatism
	// keeps in the body only costs its dispatch, never correctness.)
	moved := map[uint16]bool{}
	for _, i := range reads {
		if _, carried := lastSet[body[i].imm]; carried {
			moved[body[i].dst] = true
		}
	}
	deferred := map[int64]bool{}
	for s, i := range lastSet {
		if r := body[i].a; r != rv && !moved[r] {
			deferred[s] = true
		}
	}

	removed := nCharge
	pre := make([]kinstr, 0, len(reads))
	var phis, post []kinstr
	hoistRead := map[int]bool{}
	for _, i := range reads {
		s := body[i].imm
		if li, carried := lastSet[s]; carried {
			if !deferred[s] {
				continue // read stays in the body with its store
			}
			if src := body[li].a; src != body[i].dst {
				phis = append(phis, kinstr{op: opIMove, dst: body[i].dst, a: src})
			}
		}
		// Carried-and-deferred reads become φ registers; reads of slots
		// the loop never writes are invariant and hoist as-is.
		pre = append(pre, body[i])
		hoistRead[i] = true
		removed++
	}
	removed -= len(phis)
	for _, s := range slotOrder {
		if deferred[s] {
			post = append(post, kinstr{op: opSetSlot, a: body[lastSet[s]].a, imm: s})
		}
	}
	nb := make([]kinstr, 0, len(body))
	for i := range body {
		in := body[i]
		switch in.op {
		case opCharge:
			continue
		case opSetSlot:
			if deferred[in.imm] {
				removed++
				continue
			}
		case opISlot:
			if hoistRead[i] {
				continue
			}
		}
		nb = append(nb, in)
	}
	if removed <= 0 {
		return nil
	}
	nb = append(nb, phis...)
	return &scalarPromo{pre: pre, body: nb, post: post, perIter: perIter}
}
