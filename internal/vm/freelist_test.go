package vm

import (
	"slices"
	"strings"
	"testing"
)

// freeListPool returns a pool of n frames, each off the free list and
// mapped to the page of its own number, so a test can drive the free
// list directly and still satisfy Pool.CheckInvariants.
func freeListPool(t testing.TB, n int64) *Pool {
	t.Helper()
	_, v := newVM(t, n, n)
	pl := v.pool
	for range n {
		if pl.popFree() < 0 {
			t.Fatal("new pool's free list is short")
		}
	}
	for f := range pl.frames {
		pl.frames[f].owner, pl.frames[f].vpage = v, int64(f)
		v.pt[f].frame = int32(f)
		pl.residentInc(v)
	}
	return pl
}

// take pops the free list's head back into its page's resident set, the
// way takeFrame maps a popped frame, or returns -1 on an empty list.
func take(pl *Pool) int32 {
	f := pl.popFree()
	if f >= 0 {
		pl.residentInc(pl.frames[f].owner)
	}
	return f
}

// drainFree takes the free list empty and returns what it took, in order.
func drainFree(pl *Pool) []int32 {
	var got []int32
	for f := take(pl); f >= 0; f = take(pl) {
		got = append(got, f)
	}
	return got
}

func checkPool(t *testing.T, pl *Pool) {
	t.Helper()
	if err := pl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// A rescued frame that is freed again goes to the tail: FIFO order counts
// its latest push, never an earlier one.
func TestFreeListFIFOAfterRescue(t *testing.T) {
	pl := freeListPool(t, 8)
	for f := int32(0); f < 3; f++ {
		pl.pushFreeBack(f)
	}
	pl.rescueFromFree(0)
	pl.pushFreeBack(0)
	checkPool(t, pl)
	if got, want := drainFree(pl), []int32{1, 2, 0}; !slices.Equal(got, want) {
		t.Fatalf("pops %v, want %v", got, want)
	}
	checkPool(t, pl)
}

// release's variant: a rescued frame pushed at the head pops first, and
// once popped it pops again only from where it is pushed next.
func TestFreeListReleaseAfterRescue(t *testing.T) {
	pl := freeListPool(t, 8)
	for f := int32(0); f < 3; f++ {
		pl.pushFreeBack(f)
	}
	pl.rescueFromFree(0)
	pl.pushFreeFront(0)
	if f := take(pl); f != 0 {
		t.Fatalf("first pop %d, want the released frame 0", f)
	}
	pl.pushFreeBack(0)
	checkPool(t, pl)
	if got, want := drainFree(pl), []int32{1, 2, 0}; !slices.Equal(got, want) {
		t.Fatalf("pops %v, want %v", got, want)
	}
}

// Each kind of damage to the free list is reported, naming what broke.
func TestCheckInvariantsFreeList(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		breakIt    func(pl *Pool)
	}{
		{"link", "frame 1 has prev 2, but follows 0", func(pl *Pool) { pl.frames[1].prev = 2 }},
		{"count", "freeCount=4 but 3 frames on the free list", func(pl *Pool) { pl.freeCount++ }},
		{"range", "frame 99 after 3 members", func(pl *Pool) { pl.frames[2].next = 99 }},
		{"tail", "ends at frame 2, but freeTail=1", func(pl *Pool) { pl.freeTail = 1 }},
		{"unlisted", "4 frames flagged onFree but 3 on the free list", func(pl *Pool) { pl.frames[5].onFree = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pl := freeListPool(t, 8)
			for f := int32(0); f < 3; f++ {
				pl.pushFreeBack(f)
			}
			checkPool(t, pl)
			tc.breakIt(pl)
			err := pl.CheckInvariants()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("CheckInvariants() = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

// FuzzFreeQueue drives the free list with random pushes at either end,
// rescues and pops, against a slice kept in the same order, and checks
// every pop, FreeFrames and CheckInvariants after every step. Each input
// byte is one step: its low two bits pick the operation, the rest the
// frame.
func FuzzFreeQueue(f *testing.F) {
	const (
		back, front, rescue, pop = 0, 1, 2, 3
		frames                   = 8
	)
	step := func(op, frame byte) byte { return frame<<2 | op }
	f.Add([]byte{step(back, 0), step(back, 1), step(back, 2), step(rescue, 0), step(back, 0), step(pop, 0), step(pop, 0), step(pop, 0)})
	f.Add([]byte{step(back, 0), step(back, 1), step(back, 2), step(rescue, 0), step(front, 0), step(pop, 0), step(back, 0), step(pop, 0)})
	f.Fuzz(func(t *testing.T, steps []byte) {
		pl := freeListPool(t, frames)
		var model []int32
		for i, b := range steps {
			fr := int32(b>>2) % frames
			on := slices.Contains(model, fr)
			switch b & 3 {
			case back:
				pl.pushFreeBack(fr)
				if !on {
					model = append(model, fr)
				}
			case front:
				pl.pushFreeFront(fr)
				if !on {
					model = slices.Insert(model, 0, fr)
				}
			case rescue:
				if !on {
					continue // only a free-listed page is rescued
				}
				pl.rescueFromFree(fr)
				model = slices.DeleteFunc(model, func(m int32) bool { return m == fr })
			case pop:
				want := int32(-1)
				if len(model) > 0 {
					want, model = model[0], model[1:]
				}
				if got := take(pl); got != want {
					t.Fatalf("step %d: pop = %d, want %d", i, got, want)
				}
			}
			if pl.FreeFrames() != int64(len(model)) {
				t.Fatalf("step %d: FreeFrames = %d, want %d", i, pl.FreeFrames(), len(model))
			}
			checkPool(t, pl)
		}
		if got := drainFree(pl); !slices.Equal(got, model) {
			t.Fatalf("drained %v, want %v", got, model)
		}
	})
}
