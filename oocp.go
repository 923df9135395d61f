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
// evaluates are available through Suite and AppByName; cmd/oocbench
// regenerates the paper's tables and figures from them.
package oocp

import (
	"context"
	"fmt"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/hw"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/nas"
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
