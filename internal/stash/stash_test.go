package stash

import "testing"

// TestSlotKeepsLarger: an empty slot hands out a new set; of two sets put
// back, in either order, the larger stays; a taken set is not handed out
// again until it is put back.
func TestSlotKeepsLarger(t *testing.T) {
	for _, bigFirst := range []bool{true, false} {
		s := New(func(b *[]int) int { return cap(*b) })
		a, b := s.Take(), s.Take()
		if a == b || *a != nil {
			t.Fatalf("two takes of an empty slot gave %p and %p, %v", a, b, *a)
		}
		*a, *b = make([]int, 8), make([]int, 2)
		if bigFirst {
			s.Put(a)
			s.Put(b)
		} else {
			s.Put(b)
			s.Put(a)
		}
		if got := s.Take(); got != a {
			t.Errorf("bigFirst=%v: the slot kept room %d, not %d", bigFirst, cap(*got), cap(*a))
		}
		if got := s.Take(); got == a || got == b {
			t.Errorf("bigFirst=%v: a taken set was handed out again", bigFirst)
		}
	}
}

// TestGrow: Grow reuses room it has, zeroed, and allocates only for more.
func TestGrow(t *testing.T) {
	s := []int{1, 2, 3, 4}
	g := Grow(s[:1], 3)
	if &g[0] != &s[0] || len(g) != 3 || g[0] != 0 || g[2] != 0 || s[3] != 4 {
		t.Errorf("Grow within capacity: %v over %v", g, s)
	}
	if g := Grow(s, 5); &g[0] == &s[0] || len(g) != 5 {
		t.Errorf("Grow past capacity reused the array: %v", g)
	}
}
