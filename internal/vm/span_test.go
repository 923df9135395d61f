package vm

import "testing"

// TestLoadStoreFast checks that the inlinable hot probes succeed exactly
// on hot pages, mirror Load/Store's marking, and refuse everything else
// without side effects.
func TestLoadStoreFast(t *testing.T) {
	_, v := newVM(t, 16, 64)
	ps := v.Params().PageSize
	base, _ := v.Alloc("a", 4*ps)

	// Unmapped page: probe refuses, page stays unmapped.
	if _, ok := v.LoadFast(base); ok {
		t.Fatal("LoadFast succeeded on an unmapped page")
	}
	if ok := v.StoreFast(base, 1); ok {
		t.Fatal("StoreFast succeeded on an unmapped page")
	}
	if v.pt[v.PageOf(base)].state != unmapped {
		t.Fatal("a failed probe must not change page state")
	}

	// Make the page hot through the ordinary path.
	v.StoreI64(base, 42)
	pg := v.PageOf(base)
	v.pt[pg].referenced = false
	v.pt[pg].dirty = false

	w, ok := v.LoadFast(base)
	if !ok || w != 42 {
		t.Fatalf("LoadFast = (%d, %v), want (42, true)", w, ok)
	}
	if !v.pt[pg].referenced || v.pt[pg].dirty {
		t.Fatalf("after LoadFast: referenced=%v dirty=%v, want true/false",
			v.pt[pg].referenced, v.pt[pg].dirty)
	}
	if !v.StoreFast(base+8, 7) {
		t.Fatal("StoreFast failed on a hot page")
	}
	if !v.pt[pg].dirty {
		t.Fatal("StoreFast must mark the page dirty")
	}
	if got := v.LoadI64(base + 8); got != 7 {
		t.Fatalf("LoadI64 after StoreFast = %d, want 7", got)
	}
}
