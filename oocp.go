// Package oocp is the public API of this reproduction of "Automatic
// Compiler-Inserted I/O Prefetching for Out-of-Core Applications"
// (Mowry, Demke & Krieger, OSDI '96).
//
// The system keeps the programmer on the unlimited-virtual-memory
// abstraction: you write a plain loop-nest kernel in the small source
// language (or build IR directly), and the compiler inserts non-binding
// prefetch and release hints that the simulated operating system and a
// user-level run-time layer turn into overlapped disk I/O.
//
// Typical use:
//
//	prog, err := oocp.ParseProgram(src)        // front end
//	cfg := oocp.DefaultConfig(oocp.MachineFor(dataBytes, 2)) // data = 2× memory
//	res, err := oocp.Run(prog, cfg)            // prefetching run
//	cfg.Prefetch = false
//	base, err := oocp.Run(prog, cfg)           // original paged-VM run
//	fmt.Println(res.Speedup(base))
//
// The eight out-of-core NAS Parallel benchmark kernels the paper
// evaluates are available through Suite and AppByName. The experiment
// harness that regenerates the paper's tables and figures is one
// mechanism: a Runner (worker pool, per-run timeout, progress, trace and
// metrics sinks) runs a list of Cases — an app, a problem scale, a
// data:memory ratio and a configuration overlay — in the original and
// prefetching configurations; the Table*/Fig*/Ablate* functions are case
// lists plus their printers.
package oocp

import (
	"context"
	"fmt"
	"io"

	"repro/internal/bench"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/hw"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/nas"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/stripefs"
)

// Program is a loop-nest program: the compiler's input and the executor's
// unit of execution.
type Program = ir.Program

// Machine describes the simulated platform (Table 1).
type Machine = hw.Params

// Config selects a run configuration (original vs prefetching, warm vs
// cold start, run-time layer on or off).
type Config = core.Config

// Result carries a run's timing breakdown and every statistic the
// paper's evaluation reports. Its VM is read-only: a finished run hands
// its frames to the next one, and Peek reads from the backing store.
type Result = core.Result

// CompilerOptions configure the prefetching pass.
type CompilerOptions = compiler.Options

// CompileResult is the transformed program plus the per-reference plan.
type CompileResult = compiler.Result

// App is one benchmark of the NAS suite.
type App = nas.App

// AppResult bundles one application's runs (original, prefetching, and
// optionally no-run-time-layer) under one problem size.
type AppResult = bench.AppResult

// Case is one cell of an experiment matrix: an app at a problem scale
// and data:memory ratio under a configuration overlay (compiler options,
// warm start, a storage backend, a fault profile, ...).
type Case = bench.Case

// SuiteOptions configure a whole-suite harness run — one Case per NAS
// app: problem scale, data:memory ratio, the no-run-time-layer variant,
// the overlay, and a profile set for pass 2 of the two-pass mode.
type SuiteOptions = bench.SuiteOptions

// Runner is the experiment worker pool and the harness's sinks: it
// executes independent simulated runs concurrently, preserves
// deterministic result ordering (results are collected by index, never
// by completion order), threads cancellation and per-run timeouts into
// each run's event loop, and carries the trace and metrics every run
// reports into. Runner.RunCases runs a case list on it; one pool job is
// one simulated run.
type Runner = bench.Runner

// Progress is one progress-callback update of a Runner.
type Progress = bench.Progress

// ProgressFunc observes job completions during a harness run.
type ProgressFunc = bench.ProgressFunc

// JobMetric records one experiment job's wall-clock cost, attempts, and
// outcome.
type JobMetric = bench.JobMetric

// Trace collects a Chrome-trace-event timeline of simulated runs: one
// process per run with tracks for the VM core, each disk, and
// fault-classification instants, plus one process for the worker pool.
// Attach one via Config.Trace or Runner.Trace and export it with
// WriteJSON; the file loads in Perfetto or chrome://tracing. A nil *Trace
// disables tracing at the cost of one nil check per event.
type Trace = obs.Trace

// Metrics is the typed metrics registry every layer registers its
// metrics in. Attach one via Config.Metrics or Runner.Metrics to
// collect several runs side by side (per-run names gain
// "<label>/<variant>/" prefixes), and export a flat JSON snapshot with
// WriteJSON. It reads the statistics the layers keep (vm, disk,
// run-time layer) when it is read.
type Metrics = obs.Registry

// FaultProfile describes one deterministic fault workload: per-disk
// transient read/write error rates, latency-spike rate and factor,
// prefetch-drop rate under synthetic memory pressure, whole-disk
// brownout windows, and the disks' retry policy. Attach one via
// Config.Faults — in the harness, from a Case.Config or
// SuiteOptions.ConfigMutator overlay. The paper's hints are non-binding,
// so any profile changes only a run's timing and fault counters — never
// its results.
type FaultProfile = fault.Profile

// FaultCounts tallies what a run's fault plane actually injected
// (Result.Faults).
type FaultCounts = fault.Counts

// Tier selects the storage model backing the striped file system: the
// paper's rotating-disk array (the zero value), an NVMe-like
// flat-latency device, or a far-memory tier reached over a network. The
// compiler's prefetch distance follows the tier automatically.
type Tier = hw.Tier

// The storage tiers.
const (
	TierDisk      = hw.TierDisk
	TierNVMe      = hw.TierNVMe
	TierFarMemory = hw.TierFarMemory
)

// BackendSpec selects and parameterizes a run's storage backend. Attach
// one via Config.Backend — in the harness, from a Case.Config or
// SuiteOptions.ConfigMutator overlay; results are identical across tiers
// by construction — only timing and device statistics change.
type BackendSpec = core.BackendSpec

// TierFor maps a tier name ("disk", "nvme"/"flash",
// "farmem"/"far-memory") to its Tier.
func TierFor(name string) (Tier, error) { return core.TierFor(name) }

// TierNames returns the canonical storage-tier names, sorted.
func TierNames() []string { return hw.TierNames() }

// ParseBackendSpec parses a CLI-style backend specification such as
// "nvme" or "tier=farmem,rtt=40us,batch=32" (see core.ParseBackendSpec
// for the full key set).
func ParseBackendSpec(spec string) (BackendSpec, error) { return core.ParseBackendSpec(spec) }

// MachineForTier is MachineFor on the given storage tier.
func MachineForTier(t Tier, dataBytes int64, ratio float64) Machine {
	return core.MachineForTier(t, dataBytes, ratio)
}

// FaultProfileByName returns a named fault profile (none, flaky, slow,
// pressure, brownout, chaos).
func FaultProfileByName(name string) (FaultProfile, bool) { return fault.ProfileByName(name) }

// FaultProfileNames returns the available fault-profile names, sorted.
func FaultProfileNames() []string { return fault.ProfileNames() }

// ParseFaultSpec parses a CLI-style fault specification such as
// "brownout" or "profile=chaos,seed=7".
func ParseFaultSpec(spec string) (FaultProfile, error) { return fault.ParseSpec(spec) }

// NewTrace returns an empty trace collector.
func NewTrace() *Trace { return obs.NewTrace() }

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// ParseProgram compiles source text in the front-end loop language into a
// Program.
func ParseProgram(src string) (*Program, error) { return lang.Parse(src) }

// PrintProgram renders a program as C-like source, including any
// compiler-inserted prefetch and release calls (the paper's Figure 2
// style).
func PrintProgram(p *Program) string { return ir.Print(p) }

// DefaultMachine returns the reconstructed Table 1 platform.
func DefaultMachine() Machine { return hw.Default() }

// MachineFor sizes the platform so dataBytes stands in the given ratio to
// memory (2 = the paper's standard out-of-core setting).
func MachineFor(dataBytes int64, ratio float64) Machine {
	return core.MachineFor(dataBytes, ratio)
}

// DefaultConfig returns the standard prefetching configuration on the
// given machine.
func DefaultConfig(m Machine) Config { return core.DefaultConfig(m) }

// DefaultCompilerOptions mirror the paper's compiler configuration
// (4-page block prefetches, releases on, no two-version loops).
func DefaultCompilerOptions() CompilerOptions { return compiler.DefaultOptions() }

// Compile runs the prefetching compiler alone, returning the transformed
// program and the plan; useful for inspecting the inserted hints.
func Compile(p *Program, m Machine, opts CompilerOptions) (*CompileResult, error) {
	return compiler.Compile(p, m, opts)
}

// Run executes a program on a fresh simulated system. It is RunContext
// with a background context.
func Run(p *Program, cfg Config) (*Result, error) { return RunContext(context.Background(), p, cfg) }

// RunContext executes a program on a fresh simulated system, honoring
// ctx: cancellation or a deadline aborts the run's event loop within
// one simulated event and returns ctx's error.
func RunContext(ctx context.Context, p *Program, cfg Config) (*Result, error) {
	return core.RunContext(ctx, p, cfg)
}

// Seeder pre-initializes named arrays in the backing file before a run
// ("the data now comes from disk"). Map keys are array names; values
// generate the element at a linear index.
func Seeder(f64 map[string]func(i int64) float64, i64 map[string]func(i int64) int64) func(*Program, *stripefs.File, int64) {
	return func(prog *Program, file *stripefs.File, pageSize int64) {
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
}

// Peek reads a float64 array element of a finished run with no simulated
// cost (for validating results), from the run's backing store, which
// holds its complete output. It panics if the program has no array
// of that name or the index is out of range; use PeekE to get an error
// instead.
func Peek(res *Result, array string, i int64) float64 {
	v, err := PeekE(res, array, i)
	if err != nil {
		panic(err)
	}
	return v
}

// PeekE reads a float64 array element of a finished run with no
// simulated cost, returning an error if the program has no array of
// that name or the index is out of range.
func PeekE(res *Result, array string, i int64) (float64, error) {
	a := res.Prog.ArrayByName(array)
	if a == nil {
		return 0, fmt.Errorf("oocp: program %s has no array %q", res.Prog.Name, array)
	}
	if i < 0 || i >= a.Elems {
		return 0, fmt.Errorf("oocp: index %d out of range for array %q [0,%d)", i, array, a.Elems)
	}
	return res.VM.PeekF64(a.Base + i*8), nil
}

// RenderTimeline draws an ASCII chart of a sampled run's free memory and
// fault activity (set Config.SamplePeriod to collect samples).
func RenderTimeline(res *Result, width int) string {
	return core.RenderTimeline(res.Timeline, res.VM.Params().Frames(), width)
}

// Suite returns the eight NAS kernels in the paper's order.
func Suite() []*App { return nas.Apps() }

// AppByName returns one NAS kernel by its paper name (BUK, CGM, EMBAR,
// FFT, MGRID, APPLU, APPSP, APPBT), or nil.
func AppByName(name string) *App { return nas.ByName(name) }

// DataBytes reports the resolved data-set footprint of a program.
func DataBytes(p *Program, pageSize int64) int64 { return nas.DataBytes(p, pageSize) }

// RunAppPair runs one NAS app at a problem scale and data:memory ratio in
// both the original and prefetching configurations (ratio ≤ 0 selects the
// app's standard ratio). Results are validated against the kernel's
// independent reference implementation. It is the one-case convenience
// over Runner.RunCases.
func RunAppPair(app *App, scale, ratio float64) (*AppResult, error) {
	rs, err := new(Runner).RunCases(context.Background(), []Case{{App: app, Scale: scale, Ratio: ratio}}, false)
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// ConfigFor sizes one NAS app into its base run configuration (the
// standard prefetching configuration on a machine holding 1/ratio of the
// data set; ratio ≤ 0 selects the app's standard ratio) and reports the
// data-set size.
func ConfigFor(app *App, scale, ratio float64) (Config, int64, error) {
	return bench.ConfigFor(app, scale, ratio)
}

// The experiment harness: each function regenerates one table or figure
// of the paper onto w. See EXPERIMENTS.md for the recorded outputs.

// Table1 prints the platform characteristics.
func Table1(w io.Writer) { bench.Table1(w, hw.Default()) }

// Table2 prints the application descriptions and data-set sizes.
func Table2(w io.Writer, scale float64) { bench.Table2(w, scale) }

// RunSuiteContext runs the whole NAS suite on r, treating every (app,
// config-variant) tuple as an independent simulated run. Results come
// back in the paper's presentation order regardless of completion
// order — a parallel suite is byte-identical to a serial one.
// Cancelling ctx aborts in-flight runs within one simulated event.
func RunSuiteContext(ctx context.Context, r Runner, opts SuiteOptions) ([]*AppResult, error) {
	return bench.RunSuiteContext(ctx, r, opts)
}

// Fig3 prints the overall-performance figure from suite results.
func Fig3(w io.Writer, rs []*bench.AppResult) { bench.Fig3(w, rs) }

// Fig4 prints the compiler/run-time effectiveness figures.
func Fig4(w io.Writer, rs []*bench.AppResult) { bench.Fig4(w, rs) }

// Fig5 prints the disk activity figure.
func Fig5(w io.Writer, rs []*bench.AppResult) { bench.Fig5(w, rs) }

// Table3 prints the memory activity table.
func Table3(w io.Writer, rs []*bench.AppResult) { bench.Table3(w, rs) }

// Fig6Context runs and prints the in-core experiments.
func Fig6Context(ctx context.Context, w io.Writer, scale float64, r Runner) error {
	return bench.Fig6Context(ctx, w, scale, r)
}

// Fig7Context runs and prints the larger out-of-core experiments.
func Fig7Context(ctx context.Context, w io.Writer, scale float64, r Runner) error {
	return bench.Fig7Context(ctx, w, scale, r)
}

// Fig8Context runs and prints the BUK case study on a machine with the
// given memory size.
func Fig8Context(ctx context.Context, w io.Writer, memBytes int64, r Runner) error {
	return bench.Fig8Context(ctx, w, memBytes, r)
}

// AblateAllContext runs the design-choice ablations DESIGN.md calls out:
// the two-version-loop extension, the pages-per-block-prefetch parameter,
// release hints, and disk scheduling.
func AblateAllContext(ctx context.Context, w io.Writer, scale float64, r Runner) error {
	return bench.AblateAllContext(ctx, w, scale, r)
}

// ExplainFastPath runs every NAS proxy once at the given scale and
// prints, per loop, which bytecode driver ran it (page-run span loop or
// plain kernel loop) and why the compiler fell back when it did; an inner
// loop folded into its parent's span body reports "absorbed".
func ExplainFastPath(w io.Writer, scale float64) error {
	return bench.ExplainFastPath(w, scale)
}

// ExecutionProfile is one kernel's recorded execution profile: per-
// reference-site fault, stall, inter-access, and stride histograms from
// a pass-1 recording run (not to be confused with FaultProfile, the
// fault-injection workload).
type ExecutionProfile = profile.Profile

// ProfileSet is a versioned artifact of execution profiles keyed by
// kernel name — what RecordProfiles returns and SuiteOptions.ProfileUse
// consumes.
type ProfileSet = profile.Set

// ProfileSpec selects one pass of the two-pass profile-guided prefetch
// mode for a single run (Config.Profile): Record observes, Use guides.
type ProfileSpec = core.ProfileSpec

// RecordProfiles runs pass 1 of the two-pass mode over the whole NAS
// suite: each app executes once in its original configuration with
// observation-only instrumentation (tick-identical to a plain run) and
// the recordings come back as one ProfileSet. Feed it back through
// SuiteOptions.ProfileUse for the profile-guided pass 2.
func RecordProfiles(ctx context.Context, r Runner, opts SuiteOptions) (*ProfileSet, error) {
	return bench.RecordProfiles(ctx, r, opts)
}

// MarshalProfiles serializes a ProfileSet into its versioned artifact
// form (deterministic JSON, byte-stable across round trips).
func MarshalProfiles(s *ProfileSet) ([]byte, error) { return profile.Marshal(s) }

// UnmarshalProfiles parses and validates a ProfileSet artifact. Version
// skew returns a *profile.VersionError; anything structurally wrong
// returns a *profile.CorruptError.
func UnmarshalProfiles(data []byte) (*ProfileSet, error) { return profile.Unmarshal(data) }

// TenantOptions configures the multi-tenant service benchmark: N tenant
// kernels sharing one frame pool and disk array under residency quotas,
// prefetch-priority classes, and admission control.
type TenantOptions = bench.TenantOptions

// QoSClass is a tenant's prefetch-priority class (gold, silver,
// best-effort).
type QoSClass = disk.Class

// ParseQoSClasses parses a comma-separated class list such as
// "gold,silver,be" into a per-tenant assignment.
func ParseQoSClasses(spec string) ([]QoSClass, error) { return bench.ParseClasses(spec) }

// Tenants runs the multi-tenant service benchmark and prints per-tenant
// completion, stall, fault, and QoS statistics. Same options and seed,
// byte-identical output.
func Tenants(w io.Writer, opts TenantOptions) error { return bench.Tenants(w, opts) }
