// Package stash keeps a compile stage's working memory between calls: the
// tables a call fills and drops before it returns, which the next call
// would otherwise ask the allocator for again, zeroed. It follows the
// idiom of vm's frame slab and stripefs's recycler, not sync.Pool, whose
// contents depend on when the collector runs: a Slot is one mutex-guarded
// variable that keeps the largest set seen, so what a call allocates
// depends only on the calls before it.
package stash

import "sync"

// Slot holds at most one set of working memory. A call Takes it and Puts
// it back on every exit path; a call that finds the slot empty (another
// call holds the set) works on a new one, and when both are back the
// larger stays. A set is never shared while in use.
type Slot[T any] struct {
	mu   sync.Mutex
	v    *T
	size func(*T) int // what "larger" compares
}

// New returns an empty slot that keeps, of two sets, the one size ranks
// higher.
func New[T any](size func(*T) int) *Slot[T] { return &Slot[T]{size: size} }

// Take returns the kept set, or a new zero one when the slot is empty.
func (s *Slot[T]) Take() *T {
	s.mu.Lock()
	v := s.v
	s.v = nil
	s.mu.Unlock()
	if v == nil {
		v = new(T)
	}
	return v
}

// Put offers v back: the slot keeps it unless it holds a larger set.
func (s *Slot[T]) Put(v *T) {
	s.mu.Lock()
	if s.v == nil || s.size(s.v) < s.size(v) {
		s.v = v
	}
	s.mu.Unlock()
}

// Grow returns s resliced to n zeroed elements, allocating only when s
// has room for fewer.
func Grow[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	s = s[:n]
	clear(s)
	return s
}
