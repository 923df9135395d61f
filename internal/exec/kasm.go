// Peephole fusion and final assembly for the kernel bytecode.
package exec

// intReads calls f for each integer register the instruction reads.
// The enumeration must stay exhaustive: the peephole pass relies on it
// to prove a temporary register dead before eliminating its writer.
func intReads(in kinstr, f func(r uint16)) {
	switch in.op {
	case opJumpGeI, opJCmpI, opHintN, opSpanInit:
		f(in.a)
		f(in.b)
	case opLoopEndS:
		f(in.dst)
		f(in.b)
	case opSpanEnter: // and the loop's seed registers: see peephole
		f(in.a)
		f(in.b)
		f(uint16(in.imm2))
	case opStoreIS:
		f(in.dst)
	case opSetSlot, opSetSlotC, opIMove, opIAddImm, opIMulImm, opFromI,
		opLoadF1, opLoadI1, opStoreF1, opIdx0, opLoadFA, opLoadIA, opStoreFA,
		opHintPage, opHintLoad1, opFAccDot, opProfPost:
		f(in.a)
	case opIAdd, opISub, opIMul, opIDiv, opIMod, opIShl, opIShr, opIMin, opIMax:
		f(in.a)
		f(in.b)
	case opIdx3:
		f(in.a)
		f(in.b)
		f(uint16(in.imm2))
	case opFAccDot2:
		f(in.a)
		f(uint16(in.imm2))
	case opHintIdx3:
		f(in.a)
		f(in.dst)
		f(uint16(in.imm2))
	case opIdxAcc, opSpanNext, opSpanSlow:
		f(in.dst)
		f(in.a)
	case opStoreI1, opStoreIA:
		f(in.a)
		f(in.dst)
	case opFMulI, opFDivI:
		f(in.b)
	case opHint:
		f(in.a)
		f(in.b)
		f(in.dst)
		f(uint16(in.imm))
	}
}

// intWrite returns the integer register the instruction writes, if any.
func intWrite(in kinstr) (uint16, bool) {
	switch in.op {
	case opIMove, opIConst, opISlot,
		opIAdd, opISub, opIMul, opIDiv, opIMod, opIShl, opIShr, opIMin, opIMax,
		opIAddImm, opIMulImm, opIFromF, opIdx3,
		opLoadI1, opIdx0, opIdxAcc, opLoadIA, opHintPage, opHintN,
		opLoopEndS, opSpanNext, opSpanSlow, opLoadIS:
		return in.dst, true
	}
	return 0, false
}

// fltReads calls f for each float register the instruction reads. Like
// intReads, the enumeration must stay exhaustive: the peephole pass
// relies on it to prove a float temporary dead before eliminating its
// writer.
func fltReads(in kinstr, f func(r uint16)) {
	switch in.op {
	case opJCmpF, opFAccM, opFAdd, opFSub, opFMul, opFDiv, opFMin, opFMax,
		opPow, opFAddS, opFSubS:
		f(in.a)
		f(in.b)
	case opSetF, opFAcc, opFNeg, opSqrt, opAbs, opLog, opExp, opSin, opCos,
		opIFromF, opFMulI, opFDivI, opCosS, opSinS:
		f(in.a)
	case opStoreF1, opStoreFA, opStoreFS:
		f(in.dst)
	case opFMAdd, opFMSub, opFMAddS, opFMSubS:
		f(in.a)
		f(in.b)
		f(uint16(in.imm))
	}
}

// fltWrite returns the float register the instruction writes, if any.
func fltWrite(in kinstr) (uint16, bool) {
	switch in.op {
	case opFConst, opFSlot, opFAdd, opFSub, opFMul, opFDiv, opFMin, opFMax,
		opFNeg, opFromI, opSqrt, opAbs, opLog, opExp, opSin, opCos, opPow,
		opRandlc, opLoadF1, opLoadFA, opLoadFS,
		opFMulI, opFDivI, opFMAdd, opFMSub,
		opFAddS, opFSubS, opFMAddS, opFMSubS, opCosS, opSinS:
		return in.dst, true
	}
	return 0, false
}

// setFused maps a float producer to its store-fused variant, for fusing
// the opSetF that consumes its result. Only opcodes whose imm2 field is
// free can carry the slot.
func setFused(op kop) (kop, bool) {
	switch op {
	case opFAdd:
		return opFAddS, true
	case opFSub:
		return opFSubS, true
	case opFMAdd:
		return opFMAddS, true
	case opFMSub:
		return opFMSubS, true
	case opCos:
		return opCosS, true
	case opSin:
		return opSinS, true
	}
	return 0, false
}

// peephole fuses adjacent instruction patterns. It runs before assembly,
// while jump targets are still opLabel markers, so removing instructions
// cannot skew a target. Temporaries are only eliminated when a whole-code
// census proves they are written once and read once, by the fused pair.
// The result is compacted into code itself: a fusion reads the
// instructions it consumes before it writes its one product, and consumes
// at least as many as it writes, so the write index never passes the read
// index. census is room for the four register tallies.
func (kc *kcompiler) peephole(code []kinstr, census []int32) []kinstr {
	clear(census)
	reads, writes := census[:kc.nRI], census[kc.nRI:2*kc.nRI]
	freads, fwrites := census[2*kc.nRI:2*kc.nRI+kc.nRF], census[2*kc.nRI+kc.nRF:]
	// spanChunk reads a page-run loop's seed registers through the span
	// table, not through instruction operands.
	for i := range kc.spans {
		for _, s := range kc.spans[i].sites {
			for _, r := range s.seed {
				reads[r]++
			}
		}
	}
	for _, in := range code {
		intReads(in, func(r uint16) { reads[r]++ })
		if w, ok := intWrite(in); ok {
			writes[w]++
		}
		fltReads(in, func(r uint16) { freads[r]++ })
		if w, ok := fltWrite(in); ok {
			fwrites[w]++
		}
	}
	dead1 := func(r uint16) bool { return reads[r] == 1 && writes[r] == 1 }
	fdead1 := func(r uint16) bool { return freads[r] == 1 && fwrites[r] == 1 }

	out := code[:0]
	for i := 0; i < len(code); i++ {
		// t = a + imm; m = min(t, cap); d = base + m   -->   d = idx3
		// (the clamped-subscript shape hint planting produces per
		// iteration: base + min(k + dist, last)).
		if i+2 < len(code) &&
			code[i].op == opIAddImm && code[i+1].op == opIMin && code[i+2].op == opIAdd {
			t, m := code[i].dst, code[i+1].dst
			cap, okm := otherOperand(code[i+1], t)
			base, okd := otherOperand(code[i+2], m)
			if okm && okd && t != m && cap != t && base != t && base != m &&
				dead1(t) && dead1(m) {
				out = append(out, kinstr{op: opIdx3, dst: code[i+2].dst,
					a: code[i].a, b: cap, imm: code[i].imm, imm2: int64(base)})
				i += 2
				continue
			}
		}
		// d = idx3; HintLoad1(d)   -->   HintIdx3. The clamped subscript
		// folds into the hint dispatch itself; the displacement rides in
		// the hint's (per-instruction) aux entry. Matches only on the
		// second peephole pass, once P1 above has produced the opIdx3.
		if i+1 < len(code) && code[i].op == opIdx3 && code[i+1].op == opHintLoad1 &&
			code[i+1].a == code[i].dst && dead1(code[i].dst) {
			h := code[i+1]
			kc.haux[h.b].dist = code[i].imm
			out = append(out, kinstr{op: opHintIdx3, dst: uint16(code[i].imm2),
				a: code[i].a, b: h.b, imm: h.imm, imm2: int64(code[i].b)})
			i++
			continue
		}
		// t = p + q; FAccDot(t)   -->   FAccDot2(p, q)
		if i+1 < len(code) && code[i].op == opIAdd && code[i+1].op == opFAccDot &&
			code[i+1].a == code[i].dst && dead1(code[i].dst) {
			fused := code[i+1]
			fused.op = opFAccDot2
			fused.a = code[i].a
			fused.imm2 = int64(code[i].b)
			out = append(out, fused)
			i++
			continue
		}
		// Ints[s] = r; charge   -->   one dispatch. Moving the charge past
		// a slot store is exact: neither can fault.
		if i+1 < len(code) && code[i].op == opSetSlot && code[i+1].op == opCharge {
			out = append(out, kinstr{op: opSetSlotC, a: code[i].a,
				imm: code[i].imm, imm2: code[i+1].imm})
			i++
			continue
		}
		// t = float(ri); d = x·t or x/t   -->   one dispatch. The float
		// conversion folds into its single consumer (the FFT twiddle
		// argument c·float(j)/float(1<<s) is two of these).
		if i+1 < len(code) && code[i].op == opFromI && fdead1(code[i].dst) {
			t := code[i].dst
			n := code[i+1]
			if n.op == opFMul {
				if x, ok := otherOperand(n, t); ok && x != t {
					out = append(out, kinstr{op: opFMulI, dst: n.dst, a: x, b: code[i].a})
					i++
					continue
				}
			}
			if n.op == opFDiv && n.b == t && n.a != t {
				out = append(out, kinstr{op: opFDivI, dst: n.dst, a: n.a, b: code[i].a})
				i++
				continue
			}
		}
		// t = b·c; d = x ± t   -->   fused multiply-add/subtract (the
		// butterfly's wre·re ± wim·im pairs). Float arithmetic order is
		// preserved exactly: the product is still computed first and
		// rounded once, then added or subtracted.
		if i+1 < len(code) && code[i].op == opFMul && fdead1(code[i].dst) {
			t := code[i].dst
			n := code[i+1]
			if n.op == opFAdd {
				if x, ok := otherOperand(n, t); ok && x != t {
					out = append(out, kinstr{op: opFMAdd, dst: n.dst, a: x,
						b: code[i].a, imm: int64(code[i].b)})
					i++
					continue
				}
			}
			if n.op == opFSub && n.b == t && n.a != t {
				out = append(out, kinstr{op: opFMSub, dst: n.dst, a: n.a,
					b: code[i].a, imm: int64(code[i].b)})
				i++
				continue
			}
		}
		// d = alu(...); Floats[s] = d   -->   store-fused variant. d stays
		// written, so no deadness proof is needed; the pair is simply one
		// dispatch. Matches products of the fusions above on the second
		// peephole pass.
		if i+1 < len(code) && code[i+1].op == opSetF && code[i+1].a == code[i].dst {
			if sop, ok := setFused(code[i].op); ok {
				in := code[i]
				in.op = sop
				in.imm2 = code[i+1].imm
				out = append(out, in)
				i++
				continue
			}
		}
		out = append(out, code[i])
	}
	return out
}

// otherOperand returns the operand of a two-register instruction that is
// not r (min and add commute over int64).
func otherOperand(in kinstr, r uint16) (uint16, bool) {
	if in.a == r {
		return in.b, true
	}
	if in.b == r {
		return in.a, true
	}
	return 0, false
}

// fuseDotLoop rewrites a whole [opHintIdx3][opFAccDot2][opLoopEndS] loop
// into a single opDotLoop dispatch. It runs after assembly (targets are
// absolute pcs) and requires: the back edge targets the opHintIdx3, no
// other jump lands inside the body, the hint and dot subscripts use the
// induction register, and every other operand register is loop-invariant
// (registers are written at most once outside the back edge, so any
// register other than the induction register cannot change inside a body
// consisting of exactly these three instructions).
func fuseDotLoop(code []kinstr) {
	for i := 0; i+2 < len(code); i++ {
		if code[i].op != opHintIdx3 || code[i+1].op != opFAccDot2 ||
			code[i+2].op != opLoopEndS {
			continue
		}
		l := code[i+2]
		kr := l.dst
		if int(l.imm2) != i || code[i].a != kr || code[i].dst == kr ||
			uint16(code[i].imm2) == kr || l.b == kr {
			continue
		}
		d := code[i+1]
		if (d.a == kr) == (uint16(d.imm2) == kr) { // exactly one k operand
			continue
		}
		inside := false // a jump lands on the body's second or third instruction
		for j := range code {
			jumpTargets(&code[j], func(t *int64) { inside = inside || int(*t) == i+1 || int(*t) == i+2 })
		}
		if !inside {
			code[i].op = opDotLoop
		}
	}
}

// jumpTargets calls f on each immediate of in that holds a jump target.
func jumpTargets(in *kinstr, f func(target *int64)) {
	switch in.op {
	case opJump, opJumpGeI, opJCmpI, opJCmpF, opSpanInit, opSpanEnter:
		f(&in.imm)
	case opLoopEndS:
		f(&in.imm2)
	case opSpanNext, opSpanSlow:
		f(&in.imm)
		f(&in.imm2)
	}
}

// assemble strips opLabel markers, compacting code into itself, and
// patches every jump's label id to its absolute pc as it goes: a first
// scan has numbered the survivors.
func assemble(code []kinstr, nLabels int) []kinstr {
	pos := make([]int, nLabels)
	n := 0
	for _, in := range code {
		if in.op == opLabel {
			pos[in.imm] = n
		} else {
			n++
		}
	}
	out := code[:0]
	for _, in := range code {
		if in.op != opLabel {
			out = append(out, in)
			jumpTargets(&out[len(out)-1], func(t *int64) { *t = int64(pos[*t]) })
		}
	}
	return out
}
