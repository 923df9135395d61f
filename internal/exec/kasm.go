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
// index. census is room for the four register tallies, which the field
// roles of kops fill.
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
	tab := [2][2][]int32{{reads, writes}, {freads, fwrites}}
	for i := range code {
		regs := code[i].fields()
		for p, r := range kops[code[i].op].roles {
			if r&rd != 0 {
				tab[r.kind()][0][regs[p]]++
			}
			if r&wr != 0 {
				tab[r.kind()][1][regs[p]]++
			}
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
