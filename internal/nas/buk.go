package nas

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/ir"
	"repro/internal/vm"
)

// bukMaxKey is the key range (the in-core counting table; the key and
// rank streams are what go out of core).
const bukMaxKey = 1 << 15

const bukSrc = `
program buk
param n = %d
param maxkey = %d
array long key[n]
array long rank[n]
array long count[maxkey]

// Histogram the keys.
for i = 0 .. n {
    count[key[i]] = count[key[i]] + 1
}
// Cumulative counts.
for j = 1 .. maxkey {
    count[j] = count[j] + count[j - 1]
}
// Rank every key: position of its last occurrence in sorted order.
for i = 0 .. n {
    rank[i] = count[key[i]] - 1
}
`

// bukKey is the deterministic pseudo-random key stream.
func bukKey(i int64) int64 { return permute64(i, bukMaxKey) }

// BUK is the NAS integer (bucket) sort: it ranks a large stream of
// integer keys via counting sort. The key accesses are the paper's
// motivating indirect references, and the sequential key/rank streams are
// where its release operations pay off.
func BUK() *App {
	return &App{
		Name: "BUK",
		Desc: "integer bucket sort: ranks random keys with a counting sort (indirect references)",
		Build: func(scale float64) *ir.Program {
			n := scaleInt(768*1024, scale, 1<<12)
			return mustParse(bukSrc, n, int64(bukMaxKey))
		},
		Seed: seedBUK,
		Check: func(prog *ir.Program, v *vm.VM, env *exec.Env) error {
			n, _ := prog.ParamValue("n")
			// Independent reference: counting sort in Go.
			count := make([]int64, bukMaxKey)
			for i := int64(0); i < n; i++ {
				count[bukKey(i)]++
			}
			for j := int64(1); j < bukMaxKey; j++ {
				count[j] += count[j-1]
			}
			// Spot-check a spread of ranks plus a full checksum.
			var sum, wantSum int64
			for i := int64(0); i < n; i++ {
				want := count[bukKey(i)] - 1
				wantSum += want
				got := peekI(prog, v, "rank", i)
				sum += got
				if i%(n/97+1) == 0 && got != want {
					return fmt.Errorf("BUK: rank[%d] = %d, want %d", i, got, want)
				}
			}
			if sum != wantSum {
				return fmt.Errorf("BUK: rank checksum %d, want %d", sum, wantSum)
			}
			return nil
		},
	}
}

// seedBUK writes BUK's key stream.
var seedBUK = seedOnce(func(prog *ir.Program, sink exec.PageSink, pageSize int64) {
	exec.SeedI64(sink, pageSize, prog.ArrayByName("key"), bukKey)
})
