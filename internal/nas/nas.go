// Package nas contains out-of-core versions of the eight NAS Parallel
// benchmarks the paper evaluates (Table 2): EMBAR, MGRID, CGM, FFT,
// BUK (integer sort), APPLU, APPSP, and APPBT. Each kernel is written in
// the front-end loop language exactly as an application programmer would
// write the in-core algorithm — no explicit I/O, no hand-inserted hints —
// and is scaled so its data set stands in a chosen ratio to the simulated
// machine's memory, as the paper's experiments do. Every kernel carries a
// seeding function (the pre-initialized input data set read from disk)
// and a validation function checked against an independent Go
// reimplementation of the same computation.
package nas

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/exec"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/stash"
	"repro/internal/stripefs"
	"repro/internal/vm"
)

// App is one benchmark.
type App struct {
	// Name is the paper's name for the application (Table 2).
	Name string
	// Desc is a one-line description in the style of Table 2.
	Desc string

	// Build constructs the program at a problem scale. scale = 1 is the
	// standard out-of-core size; the harness derives memory from the
	// data size and the experiment's data:memory ratio. Scales are
	// quantized as each kernel requires (powers of two for FFT/MGRID).
	Build func(scale float64) *ir.Program

	// Seed pre-initializes the program's input arrays in the backing
	// file, with no simulated cost: it installs the App's image of the
	// data set for the program (see seedOnce).
	Seed func(prog *ir.Program, file *stripefs.File, pageSize int64)

	// Check validates the finished run against an independent
	// reimplementation, using cost-free Peek reads.
	Check func(prog *ir.Program, v *vm.VM, env *exec.Env) error

	// StdRatio is the data:memory ratio of the paper's standard
	// out-of-core run for this application; 0 means the usual 2×.
	// (MGRID's standard problem was only 20% larger than memory, §4.3.2.)
	StdRatio float64
}

// Ratio returns the app's standard out-of-core data:memory ratio.
func (a *App) Ratio() float64 {
	if a.StdRatio > 0 {
		return a.StdRatio
	}
	return 2.0
}

// DataBytes returns the resolved data-set size of a built program.
func DataBytes(prog *ir.Program, pageSize int64) int64 {
	return prog.TotalBytes(pageSize)
}

// Apps returns the full suite in the paper's presentation order.
func Apps() []*App {
	return []*App{BUK(), CGM(), EMBAR(), FFT(), MGRID(), APPLU(), APPSP(), APPBT()}
}

// ByName returns the named app (case-sensitive) or nil.
func ByName(name string) *App {
	for _, a := range Apps() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Names returns the suite's names in order.
func Names() []string {
	var out []string
	for _, a := range Apps() {
		out = append(out, a.Name)
	}
	return out
}

// ---- shared helpers ------------------------------------------------------

// mustParse parses the kernel source format fills with args, panicking on
// error (kernel sources are compiled into the binary and covered by tests).
//
// Parses are memoized by format and arguments: Build is called once per
// benchmark iteration, and front-end parsing dominated the remaining
// per-run allocations once compilation itself was cached. A hit formats
// nothing. The cached template is never handed out — every call returns a
// deep ir.Program.Clone, so callers keep the fresh-program contract
// (SetParam and Resolve on one build never affect another).
func mustParse(format string, args ...int64) *ir.Program {
	k := parseKey{format: format, n: len(args)}
	copy(k.args[:], args)
	parseMu.Lock()
	tpl, ok := parseCache[k]
	if !ok {
		tpl = lang.MustParse(k.source())
		parseCache[k] = tpl
	}
	parseMu.Unlock()
	return tpl.Clone()
}

// parseKey names a kernel source: a format and the integers its verbs take.
type parseKey struct {
	format string
	args   [6]int64
	n      int
}

// source is the text k names.
func (k parseKey) source() string {
	args := make([]any, k.n)
	for i := range args {
		args[i] = k.args[i]
	}
	return fmt.Sprintf(k.format, args...)
}

var (
	parseMu    sync.Mutex
	parseCache = map[parseKey]*ir.Program{}
)

// image is one seeded data set: the words of each page the seed writes, by
// file page (nil: never written, all-zero), cut from one allocation.
// Nothing writes an image once it is filled, so any number of files share
// its pages at once.
type image struct {
	fp       uint64 // the program's fingerprint, as the plan cache keys it
	pageSize int64
	pages    [][]uint64
	block    []uint64 // while filling: the words not yet handed to a page
}

// SetPageWords makes the image an exec.PageSink, with a stripefs.File's
// contract: the page's tail is zeroed.
func (im *image) SetPageWords(page int64, data []uint64) {
	buf := im.pages[page]
	if buf == nil {
		pw := im.pageSize / ir.ElemSize
		buf, im.block = im.block[:pw:pw], im.block[pw:]
		im.pages[page] = buf
	}
	clear(buf[copy(buf, data):])
}

// pageCount is an exec.PageSink that counts the pages a seed writes.
type pageCount int64

func (n *pageCount) SetPageWords(int64, []uint64) { *n++ }

// seedOnce returns an App's Seed. A data set is a pure function of the
// program, so fill seeds it once per program and page size into an
// image, and every run installs the image's pages in its file by
// reference (stripefs.File.SetImage): a page gets a buffer of its own
// only when the run writes it. The App keeps its last image in a stash
// slot, so a run of another program, or a concurrent run that finds the
// slot empty, seeds a fresh one: fill runs twice, first to count the
// pages, so that they are one allocation of exactly their size.
func seedOnce(fill func(prog *ir.Program, sink exec.PageSink, pageSize int64)) func(*ir.Program, *stripefs.File, int64) {
	slot := stash.New(func(im *image) int { return len(im.pages) })
	return func(prog *ir.Program, file *stripefs.File, pageSize int64) {
		fp := prog.Fingerprint()
		im := slot.Take()
		if im.pages == nil || im.fp != fp || im.pageSize != pageSize {
			var n pageCount
			fill(prog, &n, pageSize)
			im = &image{fp: fp, pageSize: pageSize, pages: make([][]uint64, prog.TotalBytes(pageSize)/pageSize),
				block: make([]uint64, int64(n)*pageSize/ir.ElemSize)}
			fill(prog, im, pageSize)
		}
		file.SetImage(im.pages)
		slot.Put(im)
	}
}

// scaleInt quantizes scale × base to at least min.
func scaleInt(base int64, scale float64, min int64) int64 {
	n := int64(float64(base) * scale)
	if n < min {
		n = min
	}
	return n
}

// scalePow2 returns the power of two nearest to base × scale, at least min.
func scalePow2(base int64, scale float64, min int64) int64 {
	target := float64(base) * scale
	p := int64(min)
	for float64(p*2) <= target*1.42 && p < 1<<30 {
		p *= 2
	}
	return p
}

// floatScalar reads a named float scalar from a finished environment.
func floatScalar(prog *ir.Program, env *exec.Env, name string) (float64, error) {
	slot, ok := prog.ScalarsF[name]
	if !ok {
		return 0, fmt.Errorf("nas: program %s has no float scalar %q", prog.Name, name)
	}
	return env.Floats[slot], nil
}

// intScalar reads a named integer scalar.
func intScalar(prog *ir.Program, env *exec.Env, name string) (int64, error) {
	slot, ok := prog.ScalarsI[name]
	if !ok {
		return 0, fmt.Errorf("nas: program %s has no int scalar %q", prog.Name, name)
	}
	return env.Ints[slot], nil
}

// peekF reads element i of a named array with no simulated cost.
func peekF(prog *ir.Program, v *vm.VM, arr string, i int64) float64 {
	a := prog.ArrayByName(arr)
	return v.PeekF64(a.Base + i*ir.ElemSize)
}

// peekI reads an int64 element.
func peekI(prog *ir.Program, v *vm.VM, arr string, i int64) int64 {
	a := prog.ArrayByName(arr)
	return v.PeekI64(a.Base + i*ir.ElemSize)
}

// approxEq checks relative equality with tolerance eps.
func approxEq(a, b, eps float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	m := math.Max(math.Abs(a), math.Abs(b))
	return d <= eps*math.Max(m, 1)
}

// randlcStream is the Go-side twin of the executor's NAS generator, for
// independent validation.
type randlcStream struct{ x uint64 }

func newRandlc(seed int64) *randlcStream {
	return &randlcStream{x: uint64(seed) & ((1 << 46) - 1)}
}

func (r *randlcStream) next() float64 {
	const a = 1220703125
	const half = uint64(1) << 23
	lo := (r.x & (half - 1)) * a
	hi := (r.x >> 23) * a
	r.x = (lo + (hi&(half-1))<<23) & ((1 << 46) - 1)
	return float64(r.x) * (1.0 / float64(uint64(1)<<46))
}

// permute64 is a cheap deterministic value scatterer used to seed keys and
// sparse structures.
func permute64(i, n int64) int64 {
	x := uint64(i)*2654435761 + 12345
	x ^= x >> 16
	x *= 2246822519
	x ^= x >> 13
	return int64(x % uint64(n))
}
