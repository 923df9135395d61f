package exec

import (
	"math"

	"repro/internal/ir"
)

// PageSink takes a page's words, zeroing its tail: a file, or an image files share.
type PageSink interface {
	SetPageWords(page int64, data []uint64)
}

// SeedF64 pre-initializes a float64 array's backing file contents, page by
// page, with no simulated cost: the experiments run against
// "pre-initialized data sets" read from disk, as in the paper's modified
// benchmarks. gen receives the linear element index.
func SeedF64(sink PageSink, pageSize int64, arr *ir.Array, gen func(i int64) float64) {
	seed(sink, pageSize, arr, func(i int64) uint64 { return math.Float64bits(gen(i)) })
}

// SeedI64 pre-initializes an int64 array's backing file contents.
func SeedI64(sink PageSink, pageSize int64, arr *ir.Array, gen func(i int64) int64) {
	seed(sink, pageSize, arr, func(i int64) uint64 { return uint64(gen(i)) })
}

func seed(sink PageSink, pageSize int64, arr *ir.Array, gen func(i int64) uint64) {
	perPage := pageSize / ir.ElemSize
	buf := make([]uint64, perPage)
	firstPage := arr.Base / pageSize
	nPages := (arr.Elems*ir.ElemSize + pageSize - 1) / pageSize
	for p := int64(0); p < nPages; p++ {
		n := min(perPage, arr.Elems-p*perPage) // SetPageWords zeroes the rest of the page
		for k := range buf[:n] {
			buf[k] = gen(p*perPage + int64(k))
		}
		sink.SetPageWords(firstPage+p, buf[:n])
	}
}
