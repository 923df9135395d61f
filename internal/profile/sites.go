// Package profile implements the two-pass profile-guided prefetch mode:
// pass 1 runs a kernel with observation-only instrumentation, recording a
// per-reference histogram of run-time strides, fault classes, and stall
// times; pass 2 feeds the serialized profile back into the prefetching
// compiler, which replaces the static latency formula with observed miss
// latencies and inserts hints for indirect and opaque references that
// static analysis skips ("Semantic prefetching using forecast slices" and
// CAPre, PAPERS.md; ROADMAP item 3).
//
// Profiles are keyed by stable reference sites: a canonical enumeration
// of the program's array references that both passes derive independently
// from the same IR, so a profile written by one process can guide a
// compile in another.
package profile

import (
	"fmt"
	"strings"

	"repro/internal/ir"
)

// Site is one static array-reference site of a program.
type Site struct {
	// ID is the site's index in the canonical enumeration.
	ID int
	// Key identifies the site across passes (and processes): access kind,
	// enclosing loop variables, array, and printed subscripts, with an
	// ordinal suffix for textual duplicates. It is stable as long as the
	// program shape is — scale parameters do not enter it.
	Key string

	Arr   *ir.Array
	Idx   []ir.IExpr
	Write bool
	Path  []*ir.Loop // enclosing loops, outermost first
}

// SitesOf enumerates a program's array-reference sites in canonical
// order: ir.WalkRefs, the walk the locality analysis collects its
// references with, so site i corresponds 1:1 to the i-th Ref of
// locality.Analyze on the same program.
func SitesOf(p *ir.Program) []Site {
	e := &siteEnum{keys: map[string]int{}}
	ir.WalkRefs(p.Body, e.add)
	return e.sites
}

type siteEnum struct {
	sites []Site
	keys  map[string]int // base key → occurrences so far
}

func (e *siteEnum) add(arr *ir.Array, idx []ir.IExpr, write bool, path []*ir.Loop) {
	var b strings.Builder
	if write {
		b.WriteByte('w')
	} else {
		b.WriteByte('r')
	}
	b.WriteByte('|')
	for i, l := range path {
		if i > 0 {
			b.WriteByte('.')
		}
		b.WriteString(l.Var)
	}
	b.WriteByte('|')
	b.WriteString(arr.Name)
	b.WriteByte('[')
	for i, ix := range idx {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%v", ix)
	}
	b.WriteByte(']')
	key := b.String()
	if n := e.keys[key]; n > 0 {
		e.keys[key] = n + 1
		key = fmt.Sprintf("%s#%d", key, n)
	} else {
		e.keys[key] = 1
	}
	e.sites = append(e.sites, Site{
		ID:    len(e.sites),
		Key:   key,
		Arr:   arr,
		Idx:   idx,
		Write: write,
		Path:  path,
	})
}
