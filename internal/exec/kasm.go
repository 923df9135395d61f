// Peephole fusion and final assembly for the kernel bytecode. Both see an
// instruction's operands only through the field roles of kops (kernel.go):
// the census that proves a temporary dead counts the registers they name,
// and assembly patches the fields they mark as jump targets. Each fusion
// below is kept because the dispatch tally shows it paying (DESIGN.md §11).
package exec

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
// index. census is room for the float register tallies, which the field
// roles of kops fill: only float temporaries are fused away.
func (kc *kcompiler) peephole(code []kinstr, census []int32) []kinstr {
	freads, fwrites := census[:kc.nRF], census[kc.nRF:2*kc.nRF]
	clear(census[:2*kc.nRF])
	for i := range code {
		regs := code[i].fields()
		for p, r := range kops[code[i].op].roles {
			if r&flt == 0 {
				continue
			}
			if r&rd != 0 {
				freads[regs[p]]++
			}
			if r&wr != 0 {
				fwrites[regs[p]]++
			}
		}
	}
	fdead1 := func(r uint16) bool { return freads[r] == 1 && fwrites[r] == 1 }

	out := code[:0]
	for i := 0; i < len(code); i++ {
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

// assemble strips opLabel markers, compacting code into itself, and
// patches every jump's label id — the imm or imm2 kops marks lbl — to its
// absolute pc as it goes: a first scan has numbered the survivors.
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
		if in.op == opLabel {
			continue
		}
		rs := &kops[in.op].roles
		if rs[3] == lbl {
			in.imm = int64(pos[in.imm])
		}
		if rs[4] == lbl {
			in.imm2 = int64(pos[in.imm2])
		}
		out = append(out, in)
	}
	return out
}
