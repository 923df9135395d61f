package exec

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// Forms reports which executable forms an artifact carries, for the
// external structure test (which imports packages that import this one).
func (a *Artifact) Forms() (bytecode, closureTree bool) { return a.code != nil, a.body != nil }

// NestedSpanLayouts counts page-run layout instructions inside the
// per-element body of a page-run loop: opSpanSlow's imm is that body's
// first pc and the instruction itself closes it. Env's span state belongs
// to one loop at a time, so the count must be 0.
func (a *Artifact) NestedSpanLayouts() (n int) {
	for pc, in := range a.code {
		if in.op != opSpanSlow {
			continue
		}
		for _, b := range a.code[in.imm:pc] {
			switch b.op {
			case opSpanInit, opSpanEnter, opSpanNext, opSpanSlow:
				n++
			}
		}
	}
	return n
}

// BytecodeHash is a sha256 over everything the nest compiler installs:
// the assembled instructions, the aux and hint-aux tables, the span
// tables and the register-file sizes. TestBytecodePinned holds it to
// recorded values.
func (a *Artifact) BytecodeHash() string {
	h := sha256.New()
	fmt.Fprintf(h, "nRI=%d nRF=%d nSites=%d nSubs=%d\n", a.nRI, a.nRF, a.nSites, a.nSubs)
	for _, in := range a.code {
		fmt.Fprintf(h, "%d %d %d %d %d %d\n", in.op, in.dst, in.a, in.b, in.imm, in.imm2)
	}
	for _, x := range a.aux {
		fmt.Fprintf(h, "aux %s %d %d\n", x.name, x.dim, x.d)
	}
	for _, x := range a.haux {
		fmt.Fprintf(h, "haux %+v\n", x)
	}
	for _, sp := range a.spans {
		fmt.Fprintf(h, "span %d %d %d %v\n", sp.slot, sp.step, sp.perIter, sp.finals)
		for _, s := range sp.sites {
			fmt.Fprintf(h, "site %d %d %v %d %v %v %s\n", s.id, s.subBase, s.write, s.delta, s.cds, s.seed, s.arr.Name)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
