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
	"sort"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/hw"
	"repro/internal/ir"
	"repro/internal/nas"
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
