package vm

import (
	"math"
	"math/bits"
)

// pageContents returns a page's current words wherever they live — frame
// memory if the page is mapped, otherwise the backing file (an in-flight
// read has not filled its frame yet, or the run is over and Recycle,
// handing its frames on, left the file holding every page) —
// or nil for a never-written, all-zero page. It is instrumentation, free
// of simulated cost, faults and statistics; the caller must not mutate or
// retain the slice.
func (v *VM) pageContents(page int64) []uint64 {
	if e := &v.pt[page]; v.words != nil && (e.state == resident || e.state == hot || e.state == freeListed) {
		return v.frameWords(e.frame)
	}
	return v.file.PeekPage(page)
}

// Peek reads the 8-byte word at addr without simulated cost, page faults,
// or statistics. It is instrumentation: result validation and workload
// seeding use it; applications never do.
func (v *VM) Peek(addr int64) uint64 {
	if src := v.pageContents(addr >> v.pageShift); src != nil {
		return src[(addr&v.pageMask)>>3]
	}
	return 0
}

// PeekF64 reads a float64 without simulated cost.
func (v *VM) PeekF64(addr int64) float64 { return math.Float64frombits(v.Peek(addr)) }

// PeekI64 reads an int64 without simulated cost.
func (v *VM) PeekI64(addr int64) int64 { return int64(v.Peek(addr)) }

// The output hash runs hashLanes independent accumulators: word i of a
// page folds into lane i mod hashLanes, so the multiply chains overlap
// and a page hashes at memory speed rather than multiply latency.
const (
	hashLanes = 4
	hashSeed  = 0xcbf29ce484222325
	hashPrime = 0x9e3779b97f4a7c15 // odd: every fold is a bijection of its lane
)

// zeroWords stands in for the contents of a never-written page.
var zeroWords [512]uint64

// HashWord folds one word into a running hash: xor, rotate (so high bits
// reach low ones), multiply. For a fixed h it is a bijection of w — a
// changed word always changes the result — and it is order-sensitive.
// Fingerprint applies it per lane; callers extend a fingerprint with
// further words (a run's scalars) through it.
func HashWord(h, w uint64) uint64 {
	return bits.RotateLeft64(h^w, 29) * hashPrime
}

// foldWords folds p into the lanes, p[i] into lane i mod hashLanes.
func foldWords(l *[hashLanes]uint64, p []uint64) {
	h0, h1, h2, h3 := l[0], l[1], l[2], l[3]
	for ; len(p) >= hashLanes; p = p[hashLanes:] {
		h0, h1, h2, h3 = HashWord(h0, p[0]), HashWord(h1, p[1]), HashWord(h2, p[2]), HashWord(h3, p[3])
	}
	*l = [hashLanes]uint64{h0, h1, h2, h3}
	for i, w := range p { // a page shorter than one lane group
		l[i] = HashWord(l[i], w)
	}
}

// Fingerprint hashes every word of the allocated address space, wherever
// it currently lives, at no simulated cost: one page-table lookup per
// page, the page's words through the lanes — which carry across pages,
// so swapping two words or two pages changes the result — and the lanes
// folded into one value at the end. A never-written page hashes as the
// zeros it reads as. This is the one reader of a run's output: the
// isolation and fault-equivalence gates compare its values.
func (v *VM) Fingerprint() uint64 {
	l := [hashLanes]uint64{hashSeed, hashSeed + 1, hashSeed + 2, hashSeed + 3}
	for page := int64(0); page < v.allocPages; page++ {
		p, reps := v.pageContents(page), int64(1)
		if p == nil {
			p = zeroWords[:min(v.pageWords, int64(len(zeroWords)))]
			reps = v.pageWords / int64(len(p))
		}
		for ; reps > 0; reps-- {
			foldWords(&l, p)
		}
	}
	h := uint64(hashSeed)
	for _, lane := range l {
		h = HashWord(h, lane)
	}
	return h
}
