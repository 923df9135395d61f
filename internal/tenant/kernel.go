package tenant

import "fmt"

// KernelSpec describes one tenant's synthetic out-of-core workload: a
// deterministic stream of read-modify-write accesses over a private
// data region, with the prefetch/release hints a compiled program would
// carry. Every quantity is derived from the spec and the job's seed, so
// the access at any index is a pure function — the scheduler can slice,
// park, and resume the stream at will without recording it.
type KernelSpec struct {
	// Kind selects the access pattern: "scan" (sequential passes with
	// block prefetch-release hints), "stride" (a coprime stride walk
	// with single-page lookahead hints), or "zipf" (a skewed random
	// mix with single-page lookahead hints).
	Kind string

	// Pages is the size of the tenant's data region.
	Pages int64

	// Passes is the number of full traversals for scan and stride
	// kernels; 0 means 1.
	Passes int64

	// Stride is the stride kernel's step in pages; 0 picks a default.
	// It is adjusted upward to the nearest value coprime with Pages so
	// every pass visits every page.
	Stride int64

	// Accesses is the zipf kernel's total access count; 0 means
	// 4×Pages.
	Accesses int64

	// Lookahead is the hint distance in accesses; 0 picks a default
	// per kind.
	Lookahead int64

	// ReadOnly makes every access a plain load. The job's fingerprint
	// is then the (unchanged) zero image; useful for workloads whose
	// residency should not include a dirty write-back pipeline.
	ReadOnly bool
}

// scanBlock is the scan kernel's hint granularity: pages prefetched (and
// released) per bundled call, the shape of the paper's
// prefetch_release_block.
const scanBlock = 8

// opsPerAccess is the user compute charged per kernel access, standing
// in for the arithmetic between memory references.
const opsPerAccess = 64

func (k *KernelSpec) validate() error {
	switch k.Kind {
	case "scan", "stride", "zipf":
	default:
		return fmt.Errorf("tenant: unknown kernel kind %q (want scan, stride, or zipf)", k.Kind)
	}
	if k.Pages <= 0 {
		return fmt.Errorf("tenant: kernel needs a positive page count, got %d", k.Pages)
	}
	if k.Passes < 0 || k.Stride < 0 || k.Accesses < 0 || k.Lookahead < 0 {
		return fmt.Errorf("tenant: negative kernel parameter")
	}
	return nil
}

// kernel is a resolved KernelSpec: defaults filled, ready to be indexed.
type kernel struct {
	spec      KernelSpec
	seed      uint64
	total     int64 // total accesses in the stream
	stride    int64 // resolved coprime stride
	lookahead int64
	pageWords int64
}

func newKernel(spec KernelSpec, seed uint64, pageSize int64) kernel {
	k := kernel{spec: spec, seed: seed, pageWords: pageSize / 8}
	passes := spec.Passes
	if passes == 0 {
		passes = 1
	}
	switch spec.Kind {
	case "scan", "stride":
		k.total = spec.Pages * passes
	case "zipf":
		k.total = spec.Accesses
		if k.total == 0 {
			k.total = 4 * spec.Pages
		}
	}
	k.stride = spec.Stride
	if k.stride == 0 {
		k.stride = 17
	}
	for gcd(k.stride, spec.Pages) != 1 {
		k.stride++
	}
	k.lookahead = spec.Lookahead
	if k.lookahead == 0 {
		if spec.Kind == "scan" {
			k.lookahead = 2 * scanBlock
		} else {
			k.lookahead = 8
		}
	}
	return k
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// pageAt returns the page the idx-th access touches.
func (k *kernel) pageAt(idx int64) int64 {
	pos := idx % k.spec.Pages
	switch k.spec.Kind {
	case "scan":
		return pos
	case "stride":
		return pos * k.stride % k.spec.Pages
	default: // zipf
		// A skewed draw without math/rand: a uniform 53-bit fraction
		// cubed concentrates ~50% of accesses on ~21% of pages, hot
		// pages at low indexes. math.Pow-free so the mapping is exact
		// integer/float arithmetic, identical on every run.
		u := float64(splitmix(k.seed^uint64(idx)) >> 11)
		u /= float64(1 << 53)
		return int64(u * u * u * float64(k.spec.Pages))
	}
}

// wordAt returns the word within the page the idx-th access hits.
func (k *kernel) wordAt(idx int64) int64 {
	return int64(splitmix(k.seed+0xa5a5a5a5+uint64(idx)) % uint64(k.pageWords))
}

// hints returns the prefetch/release hint the compiler would have placed
// before the idx-th access; pfN == 0 and relN == 0 mean no hint.
func (k *kernel) hints(idx int64) (pfPage, pfN, relPage, relN int64) {
	switch k.spec.Kind {
	case "scan":
		pos := idx % k.spec.Pages
		if pos%scanBlock != 0 {
			return 0, 0, 0, 0
		}
		// Prefetch the block lookahead pages ahead; release the block
		// the same distance behind (clamped to this pass's range).
		pf := pos + k.lookahead
		if pf < k.spec.Pages {
			pfPage, pfN = pf, min64(scanBlock, k.spec.Pages-pf)
		}
		rel := pos - k.lookahead - scanBlock
		if rel >= 0 {
			relPage, relN = rel, scanBlock
		}
		return pfPage, pfN, relPage, relN
	default: // stride, zipf: one page of lookahead per access
		ahead := idx + k.lookahead
		if ahead >= k.total {
			return 0, 0, 0, 0
		}
		return k.pageAt(ahead), 1, 0, 0
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// splitmix is the splitmix64 output function: a bijective mixer whose
// output on sequential inputs is statistically random. All kernel
// randomness derives from it, so streams are pure functions of
// (seed, index).
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// mixValue chains the idx-th access's write value from the word's
// previous value. Because pages start zero and only the owning tenant
// writes its region, the final memory image is a pure function of the
// access stream — independent of scheduling, contention, and I/O timing.
// The isolation tests rely on exactly this.
func mixValue(old, seed uint64, idx int64) uint64 {
	return splitmix(old ^ (seed + uint64(idx)*0x2545f4914f6cdd1d))
}
