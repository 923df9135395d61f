package ir

import (
	"maps"
	"slices"
	"testing"
)

// TestAffineBothQuestions asks the two questions the compiler and the
// executor put to Decompose of the same expressions. Locality's: over the
// enclosing loops i and j, with the known parameter n folded and every
// other slot opaque — which coefficients, which constant, which kind, and
// which loops drive a load. The executor's: is the expression affine in i
// alone, with every slot the loop does not write (j, n, m) fixed and the
// written scalar s opaque, literals folded but not parameters — and with
// which coefficient.
func TestAffineBothQuestions(t *testing.T) {
	p := NewProgram("affine")
	n := p.NewParam("n", 10, true) // known at compile time
	m := p.NewParam("m", 7, false) // symbolic: not a loop, not known
	i, j := p.NewLoopVar("i"), p.NewLoopVar("j")
	s := p.NewScalarI("s") // the loop body writes it
	col := p.NewArrayI("col", Int(64))
	fa := p.NewArrayF("fa", Int(64))
	known := bind(map[int]int64{n.Slot: 10})
	loops := func(slot int) SlotRole {
		if slot == i.Slot || slot == j.Slot {
			return Var
		}
		return Opaque
	}
	inLoopI := func(slot int) SlotRole {
		switch slot {
		case i.Slot:
			return Var
		case s.Slot:
			return Opaque
		}
		return Fixed
	}
	type ij = map[int]int64
	cases := []struct {
		name string
		x    IExpr
		// locality's answer
		coeffs ij
		konst  int64
		kind   string
		loaded []int
		// the executor's answer
		coeff int64
		ok    bool
	}{
		{"literal fold", AddI(MulI(Int(2), Int(3)), Int(1)), ij{}, 7, "dense", nil, 0, true},
		{"literal multiplier", MulI(i, DivI(Int(6), Int(2))), ij{i.Slot: 3}, 0, "dense", nil, 3, true},
		{"known-parameter fold", AddI(MulI(i, n), n), ij{i.Slot: 10}, 10, "dense", nil, 0, false},
		{"row-major pair", AddI(MulI(j, Int(64)), SubI(i, Int(1))), ij{j.Slot: 64, i.Slot: 1}, -1, "dense", nil, 1, true},
		{"cancelling terms", SubI(i, i), ij{i.Slot: 0}, 0, "dense", nil, 0, true},
		{"shift by a constant", ShlI(i, Int(2)), ij{i.Slot: 4}, 0, "dense", nil, 4, true},
		{"shift under a scale", SubI(Int(3), ShlI(i, Int(1))), ij{i.Slot: -2}, 3, "dense", nil, -2, true},
		{"shift out of range", ShlI(i, Int(62)), ij{}, 0, "opaque", nil, 0, false},
		{"variable shift", ShlI(Int(1), i), ij{}, 0, "opaque", nil, 0, false},
		{"non-loop slot", AddI(i, m), ij{i.Slot: 1}, 0, "opaque", nil, 1, true},
		{"written slot", AddI(i, s), ij{i.Slot: 1}, 0, "opaque", nil, 0, false},
		{"product of variables", MulI(i, j), ij{}, 0, "opaque", nil, 0, false},
		{"load", AddI(i, LoadI(col, AddI(j, Int(1)))), ij{i.Slot: 1}, 0, "indirect", []int{j.Slot}, 0, false},
		{"load in a residual", DivI(LoadI(col, MulI(i, j)), Int(2)), ij{}, 0, "indirect", []int{i.Slot, j.Slot}, 0, false},
		{"float conversion", AddI(i, IFromF{X: LoadF(fa, j)}), ij{i.Slot: 1}, 0, "opaque", nil, 0, false},
		{"min of invariants", AddI(i, MinI(m, Int(3))), ij{i.Slot: 1}, 0, "opaque", nil, 1, true},
		{"max of a variable", MaxI(i, Int(3)), ij{}, 0, "opaque", nil, 0, false},
		{"min of opposite variables", MinI(i, SubI(Int(3), i)), ij{}, 0, "opaque", nil, 0, false},
		{"division of invariants", AddI(i, DivI(j, Int(2))), ij{i.Slot: 1}, 0, "opaque", nil, 1, true},
		{"division of a variable", DivI(i, Int(2)), ij{}, 0, "opaque", nil, 0, false},
		{"zero divisor", AddI(i, ModI(Int(5), Int(0))), ij{i.Slot: 1}, 0, "opaque", nil, 1, true},
	}
	var f Affine
	for _, c := range cases {
		f.Decompose(c.x, known, loops)
		coeffs := ij{}
		for _, tm := range f.Terms {
			coeffs[tm.Slot] = tm.Coeff
		}
		kind := "dense"
		switch {
		case f.Indirect:
			kind = "indirect"
		case f.Residual || f.Rest:
			kind = "opaque"
		}
		loaded := slices.Clone(f.Loaded)
		slices.Sort(loaded)
		if !maps.Equal(coeffs, c.coeffs) || f.Const != c.konst || kind != c.kind || !slices.Equal(loaded, c.loaded) {
			t.Errorf("%s: locality's %s = %v%+d %s loads %v, want %v%+d %s loads %v",
				c.name, c.x, coeffs, f.Const, kind, loaded, c.coeffs, c.konst, c.kind, c.loaded)
		}

		f.Decompose(c.x, nil, inLoopI)
		ok := !f.Residual && !f.Indirect
		if coeff := f.Coeff(i.Slot); ok != c.ok || ok && coeff != c.coeff {
			t.Errorf("%s: the executor's %s = %d,%v, want %d,%v", c.name, c.x, coeff, ok, c.coeff, c.ok)
		}
	}
}
