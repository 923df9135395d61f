// Package harness turns the paper's central correctness claim into an
// executable property. Prefetch and release hints are non-binding
// (§2.2.1, §3.2): dropped prefetches, transient disk errors, latency
// spikes, and brownouts may change a run's *timing*, never its
// *results*. The harness runs any kernel twice — fault-free and under a
// fault profile — and asserts the two runs' outputs are byte-identical,
// with the VM's structural invariants intact after both.
//
// "Output" means everything the program computed: every word of the
// allocated address space (read at no simulated cost, so resident and
// paged-out data are both covered) and the scalar environment.
package harness

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/hw"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/nas"
	"repro/internal/stripefs"
	"repro/internal/vm"
)

// Kernel is anything the harness can run: a builder returning a fresh
// program (runs consume programs — the compiler rewrites them and the
// executor binds their addresses — so every run needs its own copy),
// the base configuration to run it under, and an optional extra
// validation of a finished run (e.g. a NAS proxy's reference check).
type Kernel struct {
	Name     string
	Build    func() *ir.Program
	Cfg      core.Config
	Validate func(*core.Result) error
}

// App adapts a NAS proxy application at a problem scale into a harness
// kernel, seeded and sized exactly as the experiment suite runs it and
// validated against the app's independent reference implementation.
func App(app *nas.App, scale float64) (Kernel, error) {
	prog := app.Build(scale)
	ps := hw.Default().PageSize
	if err := prog.Resolve(ps); err != nil {
		return Kernel{}, err
	}
	cfg := core.DefaultConfig(core.MachineFor(nas.DataBytes(prog, ps), app.Ratio()))
	cfg.Seed = app.Seed
	return Kernel{
		Name:  app.Name,
		Build: func() *ir.Program { return app.Build(scale) },
		Cfg:   cfg,
		Validate: func(res *core.Result) error {
			return app.Check(res.Prog, res.VM, res.Env)
		},
	}, nil
}

// MatrixProfiles are the seeded fault workloads of the property matrices,
// one per injectable fault family plus the everything-at-once profile.
var MatrixProfiles = []string{"flaky", "slow", "pressure", "brownout", "chaos"}

// MatrixApps picks the NAS proxies of the property matrices: six kernels
// spanning the paper's access patterns (bucket sort, sparse CG, embar,
// multigrid, the two dense solvers' representative, and FFT's
// out-of-core transpose).
func MatrixApps() []*nas.App {
	pick := map[string]bool{"BUK": true, "CGM": true, "EMBAR": true,
		"MGRID": true, "APPLU": true, "FFT": true}
	var out []*nas.App
	for _, a := range nas.Apps() {
		if pick[a.Name] {
			out = append(out, a)
		}
	}
	return out
}

// Example adapts a kernel of the examples/kernels corpus, read from path,
// into a harness kernel: data twice the memory, seeded the way the
// root-level corpus test seeds it.
func Example(path string) (Kernel, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return Kernel{}, err
	}
	prog, err := lang.Parse(string(src))
	if err != nil {
		return Kernel{}, fmt.Errorf("harness: %s: %w", path, err)
	}
	ps := hw.Default().PageSize
	if err := prog.Resolve(ps); err != nil {
		return Kernel{}, err
	}
	cfg := core.DefaultConfig(core.MachineFor(nas.DataBytes(prog, ps), 2))
	cfg.Seed = exampleSeed
	return Kernel{
		Name:  filepath.Base(path),
		Build: func() *ir.Program { return lang.MustParse(string(src)) },
		Cfg:   cfg,
	}, nil
}

// exampleSeed gives the examples corpus deterministic float inputs, and
// bounded non-negative values for its one index array ("sample") so
// gathers stay in range.
func exampleSeed(prog *ir.Program, file *stripefs.File, pageSize int64) {
	f64 := map[string]func(int64) float64{
		"A": func(i int64) float64 { return float64(i%11) / 3 },
		"B": func(i int64) float64 { return float64(i%7) / 5 },
		"x": func(i int64) float64 { return float64(i % 5) },
	}
	i64 := map[string]func(int64) int64{
		"sample": func(i int64) int64 { return (i*2654435761 + 7) & ((1 << 30) - 1) },
	}
	for name, gen := range f64 {
		if a := prog.ArrayByName(name); a != nil {
			exec.SeedF64(file, pageSize, a, gen)
		}
	}
	for name, gen := range i64 {
		if a := prog.ArrayByName(name); a != nil {
			exec.SeedI64(file, pageSize, a, gen)
		}
	}
}

// FlatApp is the one shape no NAS proxy has: a flattened sweep whose
// subscripts (k / n, k % n) are opaque to the locality analysis but walk
// the arrays with a dominant run-time stride, so only a profile can hint
// them (compiler.strideJob; benchmark/corpus/multinest.loop takes the
// same path under oocbench -profile-use).
func FlatApp() *nas.App {
	const src = `
program flat
param n = 320
array double a[n][n], t[n][n]
array double v[n * n]
for i = 0 .. n {
    for j = 0 .. n {
        a[i][j] = 1.0 * i - 0.5 * j
        t[i][j] = 0.25 * j
    }
}
for k = 0 .. n * n {
    v[k] = t[k / n][k % n] + a[(n * n - 1 - k) / n][(n * n - 1 - k) % n]
}
`
	return &nas.App{
		Name:  "flat",
		Build: func(float64) *ir.Program { return lang.MustParse(src) },
		Check: func(*ir.Program, *vm.VM, *exec.Env) error { return nil },
	}
}

// Run executes the kernel once under the given fault profile (nil =
// fault-free), checks the VM invariants afterwards, runs the kernel's
// own validation if any, and returns the result with its fingerprint.
func Run(k Kernel, prof *fault.Profile) (*core.Result, uint64, error) {
	return RunBackend(k, nil, prof)
}

// RunBackend is Run on the given storage backend (nil = the kernel's own
// machine): the same kernel, validation, and fingerprint, with the
// storage tier swapped underneath.
func RunBackend(k Kernel, spec *core.BackendSpec, prof *fault.Profile) (*core.Result, uint64, error) {
	cfg := k.Cfg
	cfg.Backend = spec
	cfg.Faults = prof
	res, err := core.Run(k.Build(), cfg)
	if err != nil {
		return nil, 0, fmt.Errorf("harness: %s: %w", k.Name, err)
	}
	if err := res.VM.CheckInvariants(); err != nil {
		return nil, 0, fmt.Errorf("harness: %s: vm invariants: %w", k.Name, err)
	}
	if k.Validate != nil {
		if err := k.Validate(res); err != nil {
			return nil, 0, fmt.Errorf("harness: %s: validation: %w", k.Name, err)
		}
	}
	return res, Fingerprint(res), nil
}

// Report is the evidence from one harness comparison.
type Report struct {
	Clean, Faulted     *core.Result
	CleanSum, FaultSum uint64
}

// Check runs the kernel fault-free and under prof, and fails unless the
// faulted run's complete output is byte-identical to the fault-free
// golden. It does not require the profile to have injected anything —
// a profile that happens to fire no faults is trivially conforming.
func Check(k Kernel, prof fault.Profile) (*Report, error) {
	clean, cleanSum, err := Run(k, nil)
	if err != nil {
		return nil, err
	}
	return CheckAgainst(k, prof, clean, cleanSum)
}

// CheckAgainst is Check with the fault-free golden precomputed, so a
// test matrix can amortize one clean run across many profiles.
func CheckAgainst(k Kernel, prof fault.Profile, clean *core.Result, cleanSum uint64) (*Report, error) {
	faulted, faultSum, err := Run(k, &prof)
	if err != nil {
		return nil, err
	}
	r := &Report{Clean: clean, Faulted: faulted, CleanSum: cleanSum, FaultSum: faultSum}
	if faultSum != cleanSum {
		return r, fmt.Errorf("harness: %s: output diverged under profile %q seed %d: fault-free %#x, faulted %#x (injected: %+v)",
			k.Name, prof.Name, prof.Seed, cleanSum, faultSum, faulted.Faults)
	}
	return r, nil
}

// CheckBackendAgainst extends the property across storage tiers: the
// kernel runs on the given backend (optionally under a fault profile —
// brownouts are network partitions on the far-memory tier) and its
// complete output must be byte-identical to the clean golden, which was
// computed on the kernel's own machine. Backends only decide when
// completions fire, so any divergence is a data-path bug in the backend.
func CheckBackendAgainst(k Kernel, spec core.BackendSpec, prof *fault.Profile, clean *core.Result, cleanSum uint64) (*Report, error) {
	res, sum, err := RunBackend(k, &spec, prof)
	if err != nil {
		return nil, err
	}
	r := &Report{Clean: clean, Faulted: res, CleanSum: cleanSum, FaultSum: sum}
	if sum != cleanSum {
		profName, profSeed := "none", uint64(0)
		if prof != nil {
			profName, profSeed = prof.Name, prof.Seed
		}
		return r, fmt.Errorf("harness: %s: output diverged on tier %s (profile %q seed %d): golden %#x, got %#x",
			k.Name, spec.Tier, profName, profSeed, cleanSum, sum)
	}
	return r, nil
}

// Fingerprint hashes a run's complete observable output: every 8-byte
// word of the allocated address space, wherever it currently lives
// (vm.Fingerprint), then the declared scalar environment (parameters
// and named scalars) folded on in slot order.
// Loop variables are excluded: the prefetch transform strip-mines loops
// with plan-dependent temporaries, and neither their count nor their
// exit values are part of the program's observable result.
func Fingerprint(res *core.Result) uint64 {
	h := res.VM.Fingerprint()
	p := res.Prog
	slots := make([]int, 0, len(p.Params)+len(p.ScalarsI))
	for _, prm := range p.Params {
		slots = append(slots, prm.Slot)
	}
	for _, s := range p.ScalarsI {
		slots = append(slots, s)
	}
	sort.Ints(slots)
	for _, s := range slots {
		h = vm.HashWord(h, uint64(res.Env.Ints[s]))
	}
	fslots := make([]int, 0, len(p.ScalarsF))
	for _, s := range p.ScalarsF {
		fslots = append(fslots, s)
	}
	sort.Ints(fslots)
	for _, s := range fslots {
		h = vm.HashWord(h, math.Float64bits(res.Env.Floats[s]))
	}
	return h
}
