package vm

import (
	"go/ast"
	"go/parser"
	"go/token"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// freeListPool returns a pool of n frames, each off the free list and
// mapped to the page of its own number, so a test can drive the free
// list directly and still satisfy Pool.CheckInvariants. Its one address
// space has 2n pages; pages n and up stay unmapped.
func freeListPool(t testing.TB, n int64) *Pool {
	t.Helper()
	_, v := newVM(t, n, 2*n)
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

// Every reachable clause of the two invariant checkers fires, each on the
// one forbidden state its row plants, with its own text. The fixture is a
// pool of 8 frames holding pages 0-7 of a 16-page space: pages 0-2 on
// the free list in that order, 3-7 resident, 8-15 unmapped.
// TestInvariantRowsCoverEveryClause holds the table to the checkers'
// source.
var invariantRows = []struct {
	name, want string
	breakIt    func(pl *Pool, v *VM)
}{
	// Pool.CheckInvariants.
	{"no owner", "vm: frame 4 maps page 4 with no owner", func(pl *Pool, v *VM) { pl.frames[4].owner = nil }},
	{"pte frame", "vm: frame 4 maps page 4, whose pte points to frame 5", func(pl *Pool, v *VM) { v.pt[4].frame = 5 }},
	{"range", "vm: free list leaves the frame table or loops: frame 99 after 3 members", func(pl *Pool, v *VM) { pl.frames[2].next = 99 }},
	{"unflagged", "vm: free-list member 1 is not flagged onFree", func(pl *Pool, v *VM) { pl.frames[1].onFree = false }},
	{"link", "vm: free-list link broken: frame 1 has prev 2, but follows 0", func(pl *Pool, v *VM) { pl.frames[1].prev = 2 }},
	{"tail", "vm: free list ends at frame 2, but freeTail=1", func(pl *Pool, v *VM) { pl.freeTail = 1 }},
	{"count", "vm: freeCount=4 but 3 frames on the free list", func(pl *Pool, v *VM) { pl.freeCount++ }},
	{"unlisted", "vm: 4 frames flagged onFree but 3 on the free list", func(pl *Pool, v *VM) { pl.frames[5].onFree = true }},
	{"resident count", "vm: tenant 0 resident=6 but 5 frames held", func(pl *Pool, v *VM) { v.resident++ }},
	{"quota census", "vm: overQuota census=1 but 0 tenants over quota", func(pl *Pool, v *VM) { pl.overQuota++ }},
	{"pool transit", "vm: pool inTransitCount=1 but tenants sum to 0", func(pl *Pool, v *VM) { pl.inTransitCount++ }},
	{"pool cleaning", "vm: pool cleaningCount=1 but tenants sum to 0", func(pl *Pool, v *VM) { pl.cleaningCount++ }},

	// VM.CheckInvariants, after the pool's half passed.
	{"no frame", "vm: page 9 in state 2 has no frame", func(pl *Pool, v *VM) { v.pt[9].state = resident }},
	{"unmapped dirty", "vm: unmapped page 9 is dirty", func(pl *Pool, v *VM) { v.pt[9].dirty = true }},
	{"other tenant", "vm: page 7's frame 7 owned by another tenant", func(pl *Pool, v *VM) {
		// A second tenant maps frame 7 consistently; v's page table
		// still names the frame.
		w := pl.Attach(v.file, nil)
		pl.frames[7].owner = w
		w.pt[7] = pte{state: resident, frame: 7}
		pl.residentDec(v)
		pl.residentInc(w)
	}},
	{"frame page", "vm: page 9's frame 4 maps page 4", func(pl *Pool, v *VM) { v.pt[9] = pte{state: resident, frame: 4} }},
	{"freeListed off list", "vm: freeListed page 4's frame not on free list", func(pl *Pool, v *VM) { v.pt[4].state = freeListed }},
	{"resident on list", "vm: resident page 1's frame on free list", func(pl *Pool, v *VM) { v.pt[1].state = resident }},
	{"hot untouched", "vm: hot page 4 not marked touched", func(pl *Pool, v *VM) { v.pt[4].state = hot }},
	{"touched resident", "vm: touched page 4 left in plain resident state", func(pl *Pool, v *VM) { v.pt[4].touched = true }},
	{"transit count", "vm: inTransitCount=1 but 0 pages in transit", func(pl *Pool, v *VM) { v.inTransitCount++; pl.inTransitCount++ }},
	{"residency bit", "vm: unmapped page 9 has its residency bit set", func(pl *Pool, v *VM) { v.bitvec.Set(9) }},
}

// unreachableClauses are the checkers' clauses no state can violate,
// with the reason; they have no row.
var unreachableClauses = map[string]string{
	"vm: more mapped frames (%d) than exist (%d)": "mapped counts frames of the frame table, so it never exceeds the table's length",
}

func TestCheckInvariantsFreeList(t *testing.T) {
	for _, tc := range invariantRows {
		t.Run(tc.name, func(t *testing.T) {
			pl := freeListPool(t, 8)
			v := pl.vms[0]
			for f := int32(0); f < 8; f++ {
				if f < 3 {
					pl.pushFreeBack(f)
					v.pt[f].state = freeListed
				} else {
					v.pt[f].state = resident
				}
			}
			if err := v.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			tc.breakIt(pl, v)
			if err := v.CheckInvariants(); err == nil || err.Error() != tc.want {
				t.Fatalf("CheckInvariants() = %v, want %q", err, tc.want)
			}
		})
	}
}

// Every "vm: ..." text the two checkers can return has exactly one row
// whose text it formats, or is listed unreachable with no row; every row
// formats exactly one text.
func TestInvariantRowsCoverEveryClause(t *testing.T) {
	var formats []string
	for _, file := range []string{"invariants.go", "pool.go"} {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Name.Name != "CheckInvariants" {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if s, err := strconv.Unquote(lit.Value); err == nil && strings.HasPrefix(s, "vm: ") {
						formats = append(formats, s)
					}
				}
				return true
			})
		}
	}
	if len(formats) != len(invariantRows)+len(unreachableClauses) {
		t.Errorf("%d clauses in the checkers, %d rows and %d unreachable", len(formats), len(invariantRows), len(unreachableClauses))
	}
	matches := make([]int, len(invariantRows))
	for _, format := range formats {
		re := regexp.MustCompile("^" + strings.ReplaceAll(regexp.QuoteMeta(format), "%d", `-?\d+`) + "$")
		var rows []string
		for i, tc := range invariantRows {
			if re.MatchString(tc.want) {
				rows = append(rows, tc.name)
				matches[i]++
			}
		}
		_, unreachable := unreachableClauses[format]
		switch {
		case unreachable && len(rows) != 0:
			t.Errorf("clause %q is listed unreachable, but rows %q produce it", format, rows)
		case !unreachable && len(rows) != 1:
			t.Errorf("clause %q has rows %q, want exactly one", format, rows)
		}
	}
	for i, n := range matches {
		if n != 1 {
			t.Errorf("row %q matches %d clauses, want 1", invariantRows[i].name, n)
		}
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
