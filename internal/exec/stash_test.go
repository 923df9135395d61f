package exec

import (
	"os"
	"testing"

	"repro/internal/lang"
)

// TestCompileWhileStashHeld: a compile that finds the stash held by
// another builds, on working memory of its own, what a compile from the
// stash builds; once both are back, the stash keeps the larger working
// memory, and a compile from it builds the same again.
func TestCompileWhileStashHeld(t *testing.T) {
	parse := func(name string) (src string) {
		data, err := os.ReadFile("../../examples/kernels/" + name)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	big, small := lang.MustParse(parse("matmul.loop")), lang.MustParse(parse("axpy.loop"))
	hash := func() string {
		t.Helper()
		a, err := Compile(small, 4096, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return a.BytecodeHash()
	}
	if _, err := Compile(big, 4096, Options{}); err != nil {
		t.Fatal(err)
	}
	want := hash()

	held := newKcompiler(big, 12, nil) // the stash, grown for big
	if got := hash(); got != want {
		t.Errorf("compiled while the stash was held: bytecode %s, from the stash %s", got, want)
	}
	own := kstash.Take() // the smaller working memory the compile above put back
	if own == held || cap(own.code) >= cap(held.code) {
		t.Fatalf("the compile while held put back code room %d, the held one has %d", cap(own.code), cap(held.code))
	}
	kstash.Put(own)
	held.release()
	if got := kstash.Take(); got != held {
		t.Errorf("the stash kept code room %d over the larger %d", cap(got.code), cap(held.code))
	} else {
		kstash.Put(got)
	}
	if got := hash(); got != want {
		t.Errorf("compiled from the kept stash: bytecode %s, before %s", got, want)
	}
}
