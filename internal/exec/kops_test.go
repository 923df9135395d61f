package exec

import (
	"fmt"
	"math"
	"testing"
)

// TestOpcodeTable: every opcode has a name of its own and well-formed field
// roles, and every opcode runLanes runs computes, through its lane handler
// and the lane slots its roles give, what runK computes lane by lane.
func TestOpcodeTable(t *testing.T) {
	seen := map[string]kop{}
	for op := kop(0); op <= opLabel; op++ {
		k := &kops[op]
		if k.name == "" {
			t.Errorf("opcode %d has no name", op)
		} else if o, dup := seen[k.name]; dup {
			t.Errorf("opcodes %d and %d are both %s", o, op, k.name)
		}
		seen[k.name] = op
		for p, r := range k.roles {
			if r != 0 && r != lbl && r&(rd|wr) == 0 || r&lbl != 0 && (r != lbl || p < 3) {
				t.Errorf("%s: field %d has role %#x", k.name, p, r)
			}
		}
		if k.lane != nil {
			t.Run(k.name, func(t *testing.T) { laneAgreesWithRunK(t, op) })
		}
	}
}

// laneAgreesWithRunK runs op once per lane on runK and once on its lane
// handler, each field p that is a register in register p+1 (runK) and lane
// slot p (the handler). Fields the roles do not read hold different values
// on the two sides, and only the fields they write may change.
func laneAgreesWithRunK(t *testing.T, op kop) {
	const n = 3
	k := &kops[op]
	for p, r := range k.roles {
		if r == iRW || r&lbl != 0 || p > 0 && r&wr != 0 {
			t.Fatalf("field %d has role %#x: runLanes keeps only a written dst", p, r)
		}
	}
	in := kinstr{op: op, dst: 1, a: 2, b: 3, imm: 4, imm2: 5}
	ival := func(p, t int) int64 { return int64(3 + 2*p + t) }
	fval := func(p, t int) float64 { return 0.5 + float64(p) + 0.25*float64(t) }
	env := func() *Env {
		e := &Env{Ints: make([]int64, 8), Floats: make([]float64, 8), ri: make([]int64, 8), rf: make([]float64, 8),
			sites: make([]runSite, 5), rngX: 271828183}
		for i := range e.sites {
			e.sites[i] = runSite{span: make([]uint64, 2*n), delta: 1}
			for j := range e.sites[i].span {
				e.sites[i].span[j] = math.Float64bits(1.5 + float64(j))
			}
		}
		for i := range e.Floats {
			e.Ints[i], e.Floats[i] = int64(10+i), 0.125*float64(i)
		}
		return e
	}

	m := &Machine{compiled: compiled{code: []kinstr{in}}}
	setRegs := func(e *Env, lane int) { // unread registers at 1000+
		for p, r := range k.roles {
			e.ri[p+1], e.rf[p+1] = int64(1000+p), float64(1000+p)
			switch r {
			case iR:
				e.ri[p+1] = ival(p, lane)
			case fR:
				e.rf[p+1] = fval(p, lane)
			}
		}
	}

	// Every field the roles read matters to runK: moving it changes what
	// the instruction leaves behind. (A shift count of 7 only shows when
	// it comes down, hence the −5.)
	effect := func(p int, d int64) string {
		e := env()
		setRegs(e, 0)
		e.ri[p+1] += d
		e.rf[p+1] += float64(d)
		m.runK(e)
		out := fmt.Sprint(e.Ints, e.Floats, e.sites)
		if k.roles[0]&wr != 0 {
			out += fmt.Sprint(e.ri[1], e.rf[1])
		}
		return out
	}
	base := effect(-1, 0)
	for p, r := range k.roles {
		if r&rd != 0 && effect(p, 100) == base && effect(p, -100) == base && effect(p, -5) == base {
			t.Errorf("field %d is read by its role, not by runK", p)
		}
	}

	// runK, one lane at a time.
	ek := env()
	var outI [n]int64
	var outF [n]float64
	for lane := 0; lane < n; lane++ {
		setRegs(ek, lane)
		ri, rf := append([]int64(nil), ek.ri...), append([]float64(nil), ek.rf...)
		m.runK(ek)
		for p, r := range k.roles {
			switch r {
			case iW:
				outI[lane], ri[p+1] = ek.ri[p+1], ek.ri[p+1]
			case fW:
				outF[lane], rf[p+1] = ek.rf[p+1], ek.rf[p+1]
			}
		}
		for i := range ri {
			if ek.ri[i] != ri[i] || math.Float64bits(ek.rf[i]) != math.Float64bits(rf[i]) {
				t.Fatalf("runK wrote register %d, which no role writes", i)
			}
		}
	}

	// The handler over n lanes, unread slots at 2000+.
	el := env()
	x := &strip{li: make([]int64, 5*laneW), lf: make([]float64, 5*laneW), s: laneSlots{0, 1, 2, 3, 4}, n: n}
	for p, r := range k.roles {
		for lane := 0; lane < n; lane++ {
			x.i(p)[lane], x.f(p)[lane] = int64(2000+p), float64(2000+p)
			switch r {
			case iR:
				x.i(p)[lane] = ival(p, lane)
			case fR:
				x.f(p)[lane] = fval(p, lane)
			}
		}
	}
	k.lane(el, x, &in)
	for lane := 0; lane < n; lane++ {
		switch k.roles[0] {
		case iW:
			if got := x.i(0)[lane]; got != outI[lane] {
				t.Errorf("lane %d: handler %d, runK %d", lane, got, outI[lane])
			}
		case fW:
			if got := x.f(0)[lane]; math.Float64bits(got) != math.Float64bits(outF[lane]) {
				t.Errorf("lane %d: handler %v, runK %v", lane, got, outF[lane])
			}
		}
	}

	// Scalars: an accumulation is the handler's, a set is runLanes' copy of
	// the last lane. Sites: the same words and the same cursor.
	switch last := n - 1; k.touch {
	case "af":
		if el.Floats[4] != ek.Floats[4] {
			t.Errorf("accumulated %v, runK %v", el.Floats[4], ek.Floats[4])
		}
	case "si":
		if x.i(1)[last] != ek.Ints[4] {
			t.Errorf("last lane sets %d, runK %d", x.i(1)[last], ek.Ints[4])
		}
	case "sf":
		if x.f(1)[last] != ek.Floats[4] {
			t.Errorf("last lane sets %v, runK %v", x.f(1)[last], ek.Floats[4])
		}
	case "sf2":
		if x.f(0)[last] != ek.Floats[5] {
			t.Errorf("last lane sets %v, runK %v", x.f(0)[last], ek.Floats[5])
		}
	}
	for i := range ek.sites {
		a, b := &ek.sites[i], &el.sites[i]
		if a.pos != b.pos {
			t.Errorf("site %d: handler cursor %d, runK %d", i, b.pos, a.pos)
		}
		for j := range a.span {
			if a.span[j] != b.span[j] {
				t.Errorf("site %d word %d: handler %#x, runK %#x", i, j, b.span[j], a.span[j])
			}
		}
	}
	if ek.rngX != el.rngX {
		t.Errorf("generator: handler at %d, runK at %d", el.rngX, ek.rngX)
	}
}
