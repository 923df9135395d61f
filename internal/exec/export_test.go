package exec

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
